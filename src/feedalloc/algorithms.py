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
2-approximation with O(1) work per candidate.  It caches each entry's
suffix value and, after a re-assignment, re-runs ``core.entry_suffixes``'s
recursion below the moved entry only, so it costs O(|E| + m + R * |M|) for
R re-assignments.

Both read the instance's per-slot rows (``ProblemInstance.row``).  Given a
``log`` list, each appends one ``IterationLog`` of scalars per processed
slot, so a traced run costs O(1) more per slot than an untraced one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .core import Mode, SuffixTree, discount_powers, solve_report
# unused, but perfbench/spans.py traces each solver module's expected_reward
from .core import expected_reward  # noqa: F401


@dataclass
class IterationLog:
    """One record per processed slot, emitted in order j = m..1.

    A record holds the slot's decision only, O(1) per slot.  The allocation
    before and after it follows by replaying the committed records: add
    (slot, chosen), after freeing the chosen ad's previous slot if the
    record is a re-assignment."""

    slot: int
    candidates: int      # number of ads with an edge to the slot
    chosen: int | None
    gain: float          # exact gain for backwards_greedy, g_LB for the proxy
    committed: bool
    reassigned: bool


def backwards_greedy(inst, mode=Mode.MATCHING, log=None, initial=None):
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
    slots are excluded from processing; the seeded ads are locked and never
    touched.  This lets the sweep run on top of another algorithm's partial
    solution (the flow baseline uses this): re-assigning a locked ad would
    vacate a slot that is never revisited, so the gain rule would overstate
    its value.
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
    frozen = set(ad_at)
    evals = commits = reassigns = 0
    for j in range(m, 0, -1):
        if j in frozen:
            continue
        cand_ads, cand_rewards = inst.row(j)
        if not cand_ads:
            if log is not None:
                log.append(IterationLog(j, 0, None, float("nan"), False, False))
            continue
        above, fj = tree.suffix(j)
        best_i = best_r = None
        best_g = 0.0
        best_reassign = False
        for i, r in zip(cand_ads, cand_rewards):
            if i in locked:
                continue
            g = r - q * fj
            reassign = matching and i in matched_slot
            if reassign:
                sigma = matched_slot[i]
                after, f_sigma = tree.suffix(sigma)
                # (1-q)^(sigma - j + p_i + 1), p_i = above - after - 1
                g -= powers[sigma - j + above - after] \
                    * (rewards[sigma] - q * f_sigma)
            evals += 1
            if best_i is None or g > best_g:
                best_i, best_g, best_r, best_reassign = i, g, r, reassign
        committed = best_g > 0.0
        if committed:
            commits += 1
            if best_reassign:
                reassigns += 1
                old = matched_slot[best_i]
                del rewards[old], ad_at[old]
                tree.remove(old)
            rewards[j], ad_at[j] = best_r, best_i
            tree.insert(j, best_r)
            if matching:
                matched_slot[best_i] = j
        if log is not None:
            log.append(IterationLog(j, len(cand_ads),
                                    best_i if committed else None, best_g,
                                    committed, committed and best_reassign))
    return solve_report("gb" if matching else "gb-mapping", inst,
                        ad_at.items(), t0,
                        {"gain_evals": evals, "commits": commits,
                         "reassignments": reassigns}, mode)


def nonoblivious_backwards_greedy(inst, log=None):
    """Alg: non-oblivious backwards greedy (matching mode only).

    Each matched ad carries an estimate tau_i = r_{i sigma(i)} - q * f_{sigma(i)}(M)
    of its contributed gain.  At slot j the candidate maximizing

        r_ij - tau_i * (1-q)^(sigma(i) - j)

    is selected (tau_i = 0, sigma(i) = j for unmatched ads) and committed iff
    the gain lower bound  g_LB = r_ij - q f_j(M) - tau_i (1-q)^(sigma(i)-j)
    is positive.  f_j(M) is rolled across slots in O(1) per slot, and a
    fresh entry takes its tau from the rolled value.

    A re-assignment sets every tau to r - q * f from the ``entry_suffixes``
    recursion.  The entries are kept slot-descending, each with its
    recursion f cached, and only the entries below the removed one change
    their f; of those above it, only the ones added since the previous
    re-assignment still carry a rolled tau.  So one pass from the higher of
    these two points down refreshes every tau, with no positions to keep,
    and the cost is O(|E| + m + R * |M|) for R re-assignments.
    """
    t0 = time.perf_counter()
    q = inst.quit_prob
    s = 1.0 - q
    m = inst.num_slots
    powers = discount_powers(q, m)    # gaps between slots are below m
    slots, ads, rewards, fs = [], [], [], []   # slot-descending entries
    tau = [None] * (inst.num_ads + 1)   # ad -> tau, None while unmatched
    sigma = [0] * (inst.num_ads + 1)    # ad -> matched slot
    rolled = 0            # lowest entries whose tau came from the rolled f_j
    commits = reassigns = scored = 0
    cur = 0.0             # f_j(M) for the slot being processed
    for j in range(m, 0, -1):
        if j < m:
            # roll f_{j+1} -> f_j over slot j+1 (one backward-recursion step)
            if slots and slots[-1] == j + 1:
                r_next = rewards[-1]
                cur = s * (cur + (r_next - q * cur))
            else:
                cur = s * cur
        cand_ads, cand_rewards = inst.row(j)
        if not cand_ads:
            if log is not None:
                log.append(IterationLog(j, 0, None, float("nan"), False, False))
            continue
        best_i = best_r = None
        best_score = -math.inf
        for i, r in zip(cand_ads, cand_rewards):
            t = tau[i]
            score = r if t is None else r - t * powers[sigma[i] - j]
            if score > best_score:
                best_i, best_score, best_r = i, score, r
        scored += len(cand_ads)
        g_lb = best_score - q * cur
        committed = g_lb > 0.0
        reassigned = False
        if committed:
            commits += 1
            reassigned = tau[best_i] is not None
            if reassigned:
                reassigns += 1
                k = slots.index(sigma[best_i])
                lo = min(k, len(slots) - rolled)
                del slots[k], ads[k], rewards[k], fs[k]
                for i, r, f in zip(ads[lo:k], rewards[lo:k], fs[lo:k]):
                    tau[i] = r - q * f
                # the entries below k change their f
                slot, r, f = _above(slots, rewards, fs, k)
                for p, i, below, r_below in zip(range(k, len(slots)), ads[k:],
                                                slots[k:], rewards[k:]):
                    f = powers[slot - below] * (r + s * f)
                    fs[p] = f
                    tau[i] = r_below - q * f
                    slot, r = below, r_below
                rolled = 0
                cur = _head(slots, rewards, fs, j, s, powers)
                f = cur
            else:
                rolled += 1
                f = _head(slots, rewards, fs, j, s, powers)
            tau[best_i] = best_r - q * cur
            sigma[best_i] = j
            slots.append(j)
            ads.append(best_i)
            rewards.append(best_r)
            fs.append(f)
        if log is not None:
            log.append(IterationLog(j, len(cand_ads),
                                    best_i if committed else None, g_lb,
                                    committed, reassigned))
    return solve_report("gbp", inst, zip(slots, ads), t0,
                        {"scores": scored, "commits": commits,
                         "reassignments": reassigns})


def _above(slots, rewards, fs, k):
    """(slot, reward, f) of the entry above position k of slot-descending
    entries, from which ``entry_suffixes``'s recursion restarts at k.  Above
    the top entry it is a zero reward at the entry's own slot, which gives
    the top entry f = 0 exactly."""
    if k:
        return slots[k - 1], rewards[k - 1], fs[k - 1]
    return (slots[0] if slots else 0), 0.0, 0.0


def _head(slots, rewards, fs, j, s, powers):
    """f_j(M) of slot-descending entries that all lie after slot j."""
    if not slots:
        return 0.0
    return powers[slots[-1] - j] * (rewards[-1] + s * fs[-1])


def instrumented_run(algorithm, inst, **kwargs):
    """Run ``algorithm(inst, ..., log=...)`` and return (report, logs)."""
    logs = []
    report = algorithm(inst, log=logs, **kwargs)
    return report, logs
