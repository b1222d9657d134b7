"""Backwards-greedy solvers.

Both algorithms process slots in reverse order, j = m..1, so a decision at
slot j can never hurt the still-unprocessed slots before it.

``backwards_greedy`` scores each candidate by its exact marginal gain on the
suffix objective and is optimal in mapping mode (ads reusable); in matching
mode it is a 2-approximation.  ``nonoblivious_backwards_greedy`` (matching
only) replaces the exact gain with a cheap lower bound built from per-ad
estimates tau_i, giving the same 2-approximation.

Both, and ``baselines.global_greedy``, keep one entry list ``slots, ads,
rewards, fs``: slot-descending under a zero reward at slot m + 1 (index 0),
each entry with its f from ``core.entry_suffixes``'s recursion, which one
loop, ``_rerun``, re-runs below an entry a sweep deletes and over the global
greedy's stale range.  A sweep's entries all lie after the slot it
processes: f_j(M) is read off the lowest (``_head``) or rolled.  The
non-oblivious sweep starts every ad on the closing entry, with tau 0.

Both read the instance's per-slot rows (``ProblemInstance.row``).  Given a
``log`` list, each appends one ``IterationLog`` of scalars per processed
slot, so a traced run costs O(1) more per slot than an untraced one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .core import Mode, discount_powers, solve_report
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
    g > 0.

    In the module's entry list an ad at position k has p_i + 1 = |M| + 1 - k.
    A move re-runs the recursion, and the ads' positions, below the removed
    entry only.  A candidate costs O(1), and the whole sweep
    O(|E| + m + R * |M|) for R re-assignments.

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
    its value.  A seeded entry joins the list when the sweep reaches its
    slot; below slot j it does not affect f_j.
    """
    t0 = time.perf_counter()
    q = inst.quit_prob
    s = 1.0 - q
    m = inst.num_slots
    matching = Mode(mode) is Mode.MATCHING
    # exponents sigma(i) - j + p_i + 1 stay below 2m
    powers = discount_powers(q, 2 * m)
    # slot-descending entries under a zero reward at slot m + 1
    slots, ads, rewards, fs = [m + 1], [None], [0.0], [0.0]
    where = [None] * (inst.num_ads + 1)   # ad -> list position, matching mode
    # slot -> (locked ad, reward); a pair that is no edge raises here
    seeded = {j: (i, inst.reward(i, j)) for j, i in initial or ()}
    locked = {i for i, _r in seeded.values()}
    for i in locked:
        where[i] = -1     # not free: the candidate scan checks ``locked``
    evals = commits = reassigns = 0
    for j in range(m, 0, -1):
        if j in seeded:
            i, r = seeded[j]
            fs.append(_head(slots, rewards, fs, j, s, powers))
            slots.append(j)
            ads.append(i)
            rewards.append(r)
            continue
        cand_ads, cand_rewards = inst.row(j)
        if not cand_ads:
            if log is not None:
                log.append(IterationLog(j, 0, None, float("nan"), False, False))
            continue
        qfj = q * _head(slots, rewards, fs, j, s, powers)
        shift = len(slots) - j    # sigma - k + shift = sigma - j + p_i + 1
        best_i = best_r = best_k = None
        best_g = -math.inf
        evals += len(cand_ads)
        for i, r in zip(cand_ads, cand_rewards):
            k = where[i]
            if k is None:
                g = r - qfj
            elif i in locked:
                evals -= 1
                continue
            else:
                g = r - qfj - powers[slots[k] - k + shift] \
                    * (rewards[k] - q * fs[k])
            if g > best_g:
                best_i, best_g, best_r, best_k = i, g, r, k
        if best_i is None:    # every candidate locked
            best_g = 0.0
        committed = best_g > 0.0
        if committed:
            commits += 1
            if best_k is not None:
                reassigns += 1
                del slots[best_k], ads[best_k], rewards[best_k], fs[best_k]
                _rerun(slots, rewards, fs, best_k, len(slots), s, powers)
                for p in range(best_k, len(slots)):   # moved up by one
                    where[ads[p]] = p
            fs.append(_head(slots, rewards, fs, j, s, powers))
            if matching:
                where[best_i] = len(slots)
            slots.append(j)
            ads.append(best_i)
            rewards.append(best_r)
        if log is not None:
            log.append(IterationLog(j, len(cand_ads),
                                    best_i if committed else None, best_g,
                                    committed,
                                    committed and best_k is not None))
    return solve_report("gb" if matching else "gb-mapping", inst,
                        zip(slots[1:], ads[1:]), t0,
                        {"gain_evals": evals, "commits": commits,
                         "reassignments": reassigns}, mode)


def nonoblivious_backwards_greedy(inst, log=None):
    """Alg: non-oblivious backwards greedy (matching mode only).

    Each matched ad carries an estimate tau_i = r_{i sigma(i)} - q * f_{sigma(i)}(M)
    of its contributed gain.  At slot j the candidate maximizing

        r_ij - tau_i * (1-q)^(sigma(i) - j)

    is selected (an unmatched ad sits on the closing entry, tau_i = 0 and
    sigma(i) = m + 1, so it scores r_ij) and committed iff the gain lower
    bound  g_LB = r_ij - q f_j(M) - tau_i (1-q)^(sigma(i)-j)  is positive.
    f_j(M) is rolled across slots in O(1) per slot, and a fresh entry takes
    its tau from the rolled value.  A candidate with tau_i >= 0 scores at
    most r_ij, also in floating point, so one whose r_ij does not exceed
    the best score so far is passed over unscored; the choice is that of
    scoring every candidate, and ``scores`` counts every candidate.

    A re-assignment sets every tau to r - q * f from the recursion.  In the
    module's entry list only the entries below the removed one change their
    f; of those above it, only the ones added since the previous
    re-assignment still carry a rolled tau.  So one pass from the higher of
    these two points down refreshes every tau, with no positions to keep,
    and the cost is O(|E| + m + R * |M|) for R re-assignments.
    """
    t0 = time.perf_counter()
    q = inst.quit_prob
    s = 1.0 - q
    m = inst.num_slots
    powers = discount_powers(q, m + 1)    # gaps between slots are <= m
    # slot-descending entries under a zero reward at slot m + 1
    slots, ads, rewards, fs = [m + 1], [None], [0.0], [0.0]
    # ad -> tau and matched slot; an unmatched ad sits on the closing entry
    tau = [0.0] * (inst.num_ads + 1)
    sigma = [m + 1] * (inst.num_ads + 1)
    rolled = 0            # lowest entries whose tau came from the rolled f_j
    commits = reassigns = scored = 0
    cur = 0.0             # f_j(M) for the slot being processed
    for j in range(m, 0, -1):
        # roll f_{j+1} -> f_j over slot j+1 (one backward-recursion step)
        if slots[-1] == j + 1:
            cur = s * (cur + (rewards[-1] - q * cur))
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
            if r <= best_score and t >= 0.0:
                continue      # score <= r: it cannot beat the best
            score = r - t * powers[sigma[i] - j]
            if score > best_score:
                best_i, best_score, best_r = i, score, r
        scored += len(cand_ads)
        g_lb = best_score - q * cur
        committed = g_lb > 0.0
        reassigned = False
        if committed:
            commits += 1
            reassigned = sigma[best_i] <= m
            if reassigned:
                reassigns += 1
                k = slots.index(sigma[best_i])
                lo = min(k, len(slots) - rolled)
                del slots[k], ads[k], rewards[k], fs[k]
                _rerun(slots, rewards, fs, k, len(slots), s, powers)
                for p in range(lo, len(slots)):
                    tau[ads[p]] = rewards[p] - q * fs[p]
            rolled = 0 if reassigned else rolled + 1
            f = _head(slots, rewards, fs, j, s, powers)
            if reassigned:    # f_j(M) from the recursion, not rolled
                cur = f
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
    return solve_report("gbp", inst, zip(slots[1:], ads[1:]), t0,
                        {"scores": scored, "commits": commits,
                         "reassignments": reassigns})


def _rerun(slots, rewards, fs, lo, hi, s, powers):
    """Re-run ``entry_suffixes``'s recursion over entries lo..hi-1 (lo >= 1),
    from entry lo - 1; the closing entry gives a top entry f = 0 exactly."""
    slot, r, f = slots[lo - 1], rewards[lo - 1], fs[lo - 1]
    for p in range(lo, hi):
        below = slots[p]
        f = fs[p] = powers[slot - below] * (r + s * f)
        slot, r = below, rewards[p]


def _head(slots, rewards, fs, j, s, powers):
    """f_j(M) of slot-descending entries that all lie after slot j."""
    return powers[slots[-1] - j] * (rewards[-1] + s * fs[-1])


def instrumented_run(algorithm, inst, **kwargs):
    """Run ``algorithm(inst, ..., log=...)`` and return (report, logs)."""
    logs = []
    report = algorithm(inst, log=logs, **kwargs)
    return report, logs
