"""The backward sweeps before their entry list was closed at slot m + 1,
kept as the oracle of ``backwards_greedy`` and
``nonoblivious_backwards_greedy``: the same entry list, with the top entry
and the empty list handled apart (``_above``, ``_head``)."""

import math
import time

from feedalloc.algorithms import IterationLog
from feedalloc.core import Mode, discount_powers, solve_report


def unclosed_backwards_greedy(inst, mode=Mode.MATCHING, log=None,
                              initial=None):
    """backwards_greedy before its list was closed at slot m + 1."""
    t0 = time.perf_counter()
    q = inst.quit_prob
    s = 1.0 - q
    m = inst.num_slots
    matching = mode is Mode.MATCHING
    # exponents sigma(i) - j + p_i + 1 stay below 2m
    powers = discount_powers(q, 2 * m)
    slots, ads, rewards, fs = [], [], [], []   # slot-descending entries
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
                k = best_k
                del slots[k], ads[k], rewards[k], fs[k]
                # the entries below k change their f and their position
                slot, r, f = _above(slots, rewards, fs, k)
                for p in range(k, len(slots)):
                    below = slots[p]
                    f = powers[slot - below] * (r + s * f)
                    fs[p] = f
                    where[ads[p]] = p
                    slot, r = below, rewards[p]
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
                        zip(slots, ads), t0,
                        {"gain_evals": evals, "commits": commits,
                         "reassignments": reassigns}, mode)


def unclosed_nonoblivious_backwards_greedy(inst, log=None):
    """nonoblivious_backwards_greedy before its list was closed at slot
    m + 1."""
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
            if t is None:
                score = r
            elif r <= best_score and t >= 0.0:
                continue      # score <= r: it cannot beat the best
            else:
                score = r - t * powers[sigma[i] - j]
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
                for p in range(lo, k):
                    tau[ads[p]] = rewards[p] - q * fs[p]
                # the entries below k change their f
                slot, r, f = _above(slots, rewards, fs, k)
                for p in range(k, len(slots)):
                    below = slots[p]
                    f = powers[slot - below] * (r + s * f)
                    fs[p] = f
                    r = rewards[p]
                    tau[ads[p]] = r - q * f
                    slot = below
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
