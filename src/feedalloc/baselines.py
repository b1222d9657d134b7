"""Comparison algorithms: global greedy (lazy), forward/online greedy,
max-weight matching, and the cardinality-constrained flow baseline plus its
greedy-augmented variant.

Every report is built by core.solve_report, which recomputes the reward;
no baseline-internal objective value is ever trusted.
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import bisect_left
from itertools import chain
from operator import neg

import numpy as np

from . import matching
from .algorithms import _rerun, backwards_greedy
from .core import _converted, discount_powers, size_cap, solve_report
# unused, but perfbench/spans.py traces each solver module's expected_reward
from .core import expected_reward  # noqa: F401


def global_greedy(inst, max_assignments=None):
    """Repeatedly commit the (ad, slot) pair with the largest positive exact
    marginal gain.  For a free ad i and free slot j the gain is

        g = (1-q)^(j + B(j)) * (r_ij - q * f_j(M)),

    the new edge's own discounted reward minus the attention it takes from
    the entries after it, with B(j) the number of entries before j.

    The entries are kept in the backward sweeps' slot-descending list (see
    ``algorithms``).  At slot j the entries after j are the first p, found by
    bisection unless j lies above them all (most pops at q > 0); f_j is read
    off entry p - 1, and B(j) = |M| + 1 - p.  A commit inserts its entry at p
    with f = f_j and makes the entries below it stale; a re-evaluation below
    the stale boundary re-runs the recursion down to the entry it reads
    (``_rerun``).  A stale f is recomputed at most once per commit that made it
    stale, so the cost is O(|E| + sorted * log |E| + pops * log |M| +
    commits * |M|) at worst, where ``sorted`` counts the edges of the slots
    popped before the stop, for commits above many entries in no slot order,
    as at small q > 0; at q = 0, g ignores f and nothing is re-run.

    At one slot every free ad shares the discount and f_j, so the gain is
    monotone in r_ij and only the slot's best free ad (largest r, then
    smallest i) can win.  The initial bounds take each row's largest reward
    in one pass; a slot's candidates are sorted on its first pop, and a
    max-heap holds one cached gain per slot.  Only the top slot is
    re-evaluated, until its refreshed gain dominates every other cached
    one; gains are non-increasing over commits and a slot's next ad has no
    larger reward, so a cached gain stays an upper bound for its slot.  A
    popped slot whose best ad is used elsewhere moves on to its next free
    ad under the same bound; a slot with no free ad left, or a committed
    one, leaves the heap.  The heap holds at most m entries.  The loop stops
    once every ad is placed; each slot left counts the one empty pop it
    would have taken.

    Ties break to the smallest j, then to the largest r and the smallest i.
    That is the lexicographically smallest (j, i) among the largest gains,
    except where two different rewards at one slot give gains that round to
    the same float: there the larger r wins.
    """
    t0 = time.perf_counter()
    q = inst.quit_prob
    s = 1.0 - q
    cap = size_cap(max_assignments)
    limit = min(cap, inst.num_ads)     # no commit follows the last free ad
    # exponents j + B(j) stay below 2m
    powers = discount_powers(q, 2 * inst.num_slots)
    rows = dict(inst.rows())
    orders = {}           # slot -> its row positions by reward, from 1st pop
    # initial gains on the empty allocation: max r * (1-q)^j
    starts = np.cumsum([0] + [len(a) for a, _r in rows.values()])[:-1]
    best = np.maximum.reduceat(
        np.frombuffer(b"".join(r for _a, r in rows.values())), starts)
    heap = list(zip((-best * [powers[j] for j in rows]).tolist(), rows))
    heapq.heapify(heap)
    # slot-descending entries under a zero reward at slot m + 1
    slots, ads, rewards, fs = [inst.num_slots + 1], [None], [0.0], [0.0]
    fresh = 1             # fs[p] is f_{slots[p]}(M) for p < fresh
    used_ads = set()
    pops = reevals = 0
    while heap and len(slots) <= limit:
        _neg_bound, j = heapq.heappop(heap)
        pops += 1
        cand_ads, cand_rewards = rows[j]
        order = orders.get(j)
        if order is None:
            # the best (largest r, then smallest i) last: a stable sort of
            # -r, reversed, keeps equal rewards in descending i
            order = orders[j] = np.argsort(-np.frombuffer(cand_rewards),
                                           kind="stable")[::-1].tolist()
        while order and cand_ads[order[-1]] in used_ads:
            order.pop()
        if not order:
            continue
        r, i = cand_rewards[order[-1]], cand_ads[order[-1]]
        p = 1 if len(slots) == 1 or j > slots[1] else \
            bisect_left(slots, -j, 2, key=neg)    # the entries after j
        if p > fresh and q:           # at q = 0 the gain ignores f_j
            _rerun(slots, rewards, fs, fresh, p, s, powers)
            fresh = p
        fj = powers[slots[p - 1] - j] * (rewards[p - 1] + s * fs[p - 1])
        g = powers[j + len(slots) - p] * (r - q * fj)
        reevals += 1
        key = (-g, j)
        if heap and heap[0] < key:
            # another slot may beat this one, or tie it with a smaller j;
            # re-cache and retry
            heapq.heappush(heap, key)
            continue
        if g <= 0.0:
            break
        used_ads.add(i)
        slots.insert(p, j)
        ads.insert(p, i)
        rewards.insert(p, r)
        fs.insert(p, fj)
        fresh = p + 1     # the entries below j are stale
    if len(slots) - 1 == inst.num_ads < cap:
        pops += len(heap)     # each slot left would pop once, with no free ad
    return solve_report("global", inst, zip(slots[1:], ads[1:]), t0,
                        {"pops": pops, "gain_evals": reevals,
                         "commits": len(slots) - 1})


def _scan_slots(inst, threshold, max_assignments):
    """Process the slots that have edges in increasing order; at each, the
    unused ad with the largest reward (lowest index among ties) is committed
    iff that reward exceeds ``threshold``.  The scan stops at the cap or
    once every ad is placed.  Returns the (slot, ad) entries."""
    limit = min(size_cap(max_assignments), inst.num_ads)
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


def forward_greedy(inst, max_assignments=None):
    """Online greedy: process slots 1..m in order and assign the unused ad
    with the largest (positive) reward, with no look-ahead."""
    t0 = time.perf_counter()
    entries = _scan_slots(inst, 0.0, max_assignments)
    return solve_report("forward", inst, entries, t0,
                        {"commits": len(entries)})


def auto_threshold(inst):
    """Default online threshold: best reward of an ad allocation to the
    first slot (0 if slot 1 has no incident edges)."""
    return max(inst.row(1)[1], default=0.0)


def online_threshold(inst, threshold="auto", max_assignments=None):
    """Online greedy with a pre-determined threshold: at each slot the best
    unused ad is assigned iff its reward exceeds the threshold."""
    t0 = time.perf_counter()
    thr = auto_threshold(inst) if threshold == "auto" \
        else _converted(float, threshold)    # NaN unless equal to its float()
    if thr != thr:
        raise ValueError("threshold %r is not 'auto' or a non-NaN real"
                         % (threshold,))
    entries = _scan_slots(inst, thr, max_assignments)
    return solve_report("online", inst, entries, t0,
                   {"commits": len(entries), "threshold": thr})


def _static_weights(inst):
    """Position-biased static weights w_ij = r_ij * (1-q)^j, as an (|E|, 3)
    array of (ad, slot, weight) rows in the rows' own increasing (slot, ad)
    order, in which the matcher skips its parallel-edge step.  Each occupied
    slot's power is Python's ``float ** int``; NumPy's differs in the last bit."""
    s = 1.0 - inst.quit_prob
    slots, rows = zip(*inst.rows()) if inst.rows() else ((), ())
    ads, rewards = zip(*rows) if rows else ((), ())
    counts = [len(a) for a in ads]
    ad = np.fromiter(chain.from_iterable(ads), np.float64)
    slot = np.repeat(np.array(slots, dtype=np.intp), counts)
    powers = np.repeat([s ** j for j in slots], counts)
    weight = np.frombuffer(b"".join(rewards)) * powers
    return np.column_stack((ad, slot, weight))


def mwm_baseline(inst):
    """Max-weight matching on static position-biased weights, scored by the
    true objective."""
    t0 = time.perf_counter()
    pairs, _w = matching.max_weight_matching(_static_weights(inst))
    entries = [(j, i) for i, j in pairs]
    return solve_report("mwm", inst, entries, t0, {"matched": len(entries)})


def flow_cardinality(q, n, m):
    """Size cap k(q) of the flow baseline: floor((1-q)/q), unbounded at q=0."""
    if q <= 0.0:
        return min(n, m)
    return int(math.floor((1.0 - q) / q))


def flow_baseline(inst, max_assignments=None):
    """Cardinality-constrained static-weight matching: at most k(q) ads, or
    ``max_assignments`` if fewer, via a capped matching."""
    t0 = time.perf_counter()
    k = min(flow_cardinality(inst.quit_prob, inst.num_ads, inst.num_slots),
            size_cap(max_assignments))
    if k <= 0:
        return solve_report("flow", inst, [], t0, {"cardinality_cap": k})
    pairs, _w = matching.constrained_max_weight_matching(_static_weights(inst), k)
    entries = [(j, i) for i, j in pairs]
    return solve_report("flow", inst, entries, t0,
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
    sweep = backwards_greedy(inst, initial=base.allocation.entries)
    counters = dict(base.counters)
    counters["greedy_added"] = len(sweep.allocation) - len(base.allocation)
    return solve_report("flowg", inst, sweep.allocation.entries, t0, counters)
