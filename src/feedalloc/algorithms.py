"""Backwards-greedy solvers.

Both algorithms process slots in reverse order, j = m..1, so a decision at
slot j can never hurt the still-unprocessed slots before it.

``backwards_greedy`` scores each candidate by its exact marginal gain on the
suffix objective and is optimal in mapping mode (ads reusable); in matching
mode it is a 2-approximation.  The gain has a closed form in f_j(M), the
moved ad's old slot and the suffix value after it, all read from a segment
tree over the slots (``core.SuffixTree``), so the cost is O(|E| log m).

``nonoblivious_backwards_greedy`` (matching only) replaces the exact gain
with a cheap lower bound built from per-ad estimates tau_i, giving the same
2-approximation at O(|E| + m*|M|) cost with O(1) work per candidate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .core import (Allocation, Mode, SolveReport, SuffixTree, entry_suffixes,
                   expected_reward, suffix_vector)


@dataclass
class IterationLog:
    """One record per processed slot, emitted in order j = m..1."""

    slot: int
    candidates: tuple
    chosen: int | None
    gain: float          # exact gain for backwards_greedy, g_LB for the proxy
    committed: bool
    reassigned: bool
    suffix_before: tuple  # (f_0(M), ..., f_m(M)) before this slot's decision
    suffix_after: tuple   # same, after


def _snapshot(pairs, q, m):
    """(f_0(M), ..., f_m(M)) of an allocation's (slot, reward) pairs."""
    return tuple(suffix_vector(sorted(pairs), q, m))


def backwards_greedy(inst, mode=Mode.MATCHING, log=None, initial=None,
                     frozen_slots=None):
    """Exact-gain backwards greedy.

    At slot j every candidate ad i is tried as M_i = M + (i, j); in matching
    mode an ad already placed at a later slot sigma(i) is moved (its old
    edge removed, the vacated slot stays empty).  The exact gain

        g_i = f_{j-1}(M_i) / (1-q) - f_j(M)
            = r_ij - q * f_j(M) - (1-q) * loss_i

    is computed in closed form, where loss_i = f_j(M) - f_j(M - e_sigma(i))
    is

        loss_i = (1-q)^(sigma(i) - j + p_i) * (r_{i sigma(i)} - q * f_{sigma(i)}(M))

    with p_i the number of entries in slots (j, sigma(i)); loss_i is 0 for
    an unplaced ad and in mapping mode.  The best candidate is committed iff
    g > 0.  f_j, f_{sigma(i)} and p_i are read from a ``SuffixTree`` over
    the slots, so the cost is O(|E| log m).

    Ties break to the lowest ad index among gains equal in floating point;
    unplaced ads with equal rewards always tie exactly.  Gains that differ
    by less than their rounding error (integer rewards, as on the
    finely_targeted scheme) may be ordered differently than by a direct
    re-evaluation of f_{j-1}(M_i), so which of such ads is picked is not
    part of the contract.

    ``initial`` seeds the matching with pre-assigned (slot, ad) pairs whose
    slots (listed in ``frozen_slots``) are excluded from processing; the
    seeded ads are locked and never touched.  This lets the sweep run on top
    of another algorithm's partial solution (the flow baseline uses this):
    re-assigning a locked ad would vacate a slot that is never revisited,
    so the gain rule would overstate its value.
    """
    t0 = time.perf_counter()
    q = inst.quit_prob
    m = inst.num_slots
    matching = mode is Mode.MATCHING
    tree = SuffixTree(m, q)
    powers = tree.powers
    rewards = {}          # slot -> reward of its entry
    ad_at = {}            # slot -> ad of its entry
    matched_slot = {}     # ad -> slot, matching mode only
    for j, i in initial or ():
        r = inst.reward(i, j)
        rewards[j], ad_at[j] = r, i
        tree.insert(j, r)
        matched_slot[i] = j
    locked = set(matched_slot)
    frozen = frozen_slots or ()
    evals = commits = reassigns = 0
    for j in range(m, 0, -1):
        if j in frozen:
            continue
        cands = inst.candidates(j)
        if log is not None:
            before = _snapshot(rewards.items(), q, m)
        if not cands:
            if log is not None:
                log.append(IterationLog(j, (), None, float("nan"), False, False,
                                        before, before))
            continue
        above, fj = tree.suffix(j)
        best_i = None
        best_g = 0.0
        best_reassign = False
        for i in cands:
            if i in locked:
                continue
            g = inst.reward(i, j) - q * fj
            reassign = matching and i in matched_slot
            if reassign:
                sigma = matched_slot[i]
                after, f_sigma = tree.suffix(sigma)
                # (1-q)^(sigma - j + p_i + 1), p_i = above - after - 1
                g -= powers[sigma - j + above - after] \
                    * (rewards[sigma] - q * f_sigma)
            evals += 1
            if best_i is None or g > best_g:
                best_i, best_g, best_reassign = i, g, reassign
        committed = best_g > 0.0
        if committed:
            commits += 1
            if best_reassign:
                reassigns += 1
                old = matched_slot[best_i]
                del rewards[old], ad_at[old]
                tree.remove(old)
            r = inst.reward(best_i, j)
            rewards[j], ad_at[j] = r, best_i
            tree.insert(j, r)
            if matching:
                matched_slot[best_i] = j
        if log is not None:
            log.append(IterationLog(j, tuple(cands), best_i if committed else None,
                                    best_g, committed,
                                    committed and best_reassign,
                                    before, _snapshot(rewards.items(), q, m)))
    alloc = Allocation(entries=tuple(ad_at.items()), mode=mode)
    reward = expected_reward(inst, alloc)
    name = "gb" if matching else "gb-mapping"
    return SolveReport(algorithm=name, allocation=alloc, expected_reward=reward,
                       wall_time=time.perf_counter() - t0,
                       counters={"gain_evals": evals, "commits": commits,
                                 "reassignments": reassigns})


def nonoblivious_backwards_greedy(inst, log=None):
    """Alg: non-oblivious backwards greedy (matching mode only).

    Each matched ad carries an estimate tau_i = r_{i sigma(i)} - q * f_{sigma(i)}(M)
    of its contributed gain.  At slot j the candidate maximizing

        r_ij - tau_i * (1-q)^(sigma(i) - j)

    is selected (tau_i = 0, sigma(i) = j for unmatched ads) and committed iff
    the gain lower bound  g_LB = r_ij - q f_j(M) - tau_i (1-q)^(sigma(i)-j)
    is positive.  f_j(M) is rolled across slots in O(1) per slot; after a
    re-assignment it and every matched ad's tau are recomputed in one
    ``entry_suffixes`` pass, so the cost is O(|E| + m * |M|).
    """
    t0 = time.perf_counter()
    q = inst.quit_prob
    s = 1.0 - q
    m = inst.num_slots
    entries = []          # slot-ascending (slot, ad, reward)
    tau = {}
    sigma = {}            # ad -> matched slot
    commits = reassigns = scored = 0
    cur = 0.0             # f_j(M) for the slot being processed
    for j in range(m, 0, -1):
        if j < m:
            # roll f_{j+1} -> f_j over slot j+1 (one backward-recursion step)
            if entries and entries[0][0] == j + 1:
                r_next = entries[0][2]
                cur = s * (cur + (r_next - q * cur))
            else:
                cur = s * cur
        cands = inst.candidates(j)
        if log is not None:
            before = _snapshot(_entry_pairs(entries), q, m)
        if not cands:
            if log is not None:
                log.append(IterationLog(j, (), None, float("nan"), False, False,
                                        before, before))
            continue
        best_i = None
        best_score = 0.0
        for i in cands:
            t = tau.get(i)
            if t is None:
                score = inst.reward(i, j)
            else:
                score = inst.reward(i, j) - t * s ** (sigma[i] - j)
            scored += 1
            if best_i is None or score > best_score:
                best_i, best_score = i, score
        g_lb = best_score - q * cur
        committed = g_lb > 0.0
        reassigned = False
        if committed:
            commits += 1
            r = inst.reward(best_i, j)
            reassigned = best_i in sigma
            if reassigned:
                reassigns += 1
                entries = [e for e in entries if e[1] != best_i]
            entries.insert(0, (j, best_i, r))
            sigma[best_i] = j
            if reassigned:
                # removing the old edge changes f_j and every later tau
                f = entry_suffixes(_entry_pairs(entries), q)
                cur = f[0]
                for (_slot, ad, rr), fp in zip(entries, f):
                    tau[ad] = rr - q * fp
            else:
                tau[best_i] = r - q * cur
        if log is not None:
            log.append(IterationLog(j, tuple(cands), best_i if committed else None,
                                    g_lb, committed, reassigned,
                                    before,
                                    _snapshot(_entry_pairs(entries), q, m)))
    alloc = Allocation(entries=tuple((j, i) for j, i, _ in entries),
                       mode=Mode.MATCHING)
    reward = expected_reward(inst, alloc)
    return SolveReport(algorithm="gbp", allocation=alloc, expected_reward=reward,
                       wall_time=time.perf_counter() - t0,
                       counters={"scores": scored, "commits": commits,
                                 "reassignments": reassigns})


def _entry_pairs(entries):
    """(slot, reward) pairs of slot-sorted (slot, ad, reward) entries."""
    return [(j, r) for j, _i, r in entries]


def instrumented_run(algorithm, inst, **kwargs):
    """Run ``algorithm(inst, ..., log=...)`` and return (report, logs)."""
    logs = []
    report = algorithm(inst, log=logs, **kwargs)
    return report, logs
