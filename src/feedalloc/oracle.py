"""Ground truth: exhaustive solvers for tiny instances and a Monte-Carlo
session simulator.

The simulator draws the quit point directly from the browsing process (one
quit coin after every viewed element), so its estimates are independent of
the closed-form objective evaluation and can be used to validate it.
PRNG contract: NumPy's default_rng (PCG64), seeded explicitly; sessions
are drawn in chunks of ``SIM_CHUNK``, chunk k from the seed [seed, k].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Allocation, Mode, checked_pairs, suffix_value


class OracleGuardError(ValueError):
    """Raised when an instance is too large for exhaustive enumeration."""


MAX_BF_EDGES = 24
MAX_BF_SIDE = 8
MAX_BF_SLOTS = 16

SIM_CHUNK = 1 << 17


def brute_force_matching(inst):
    """Enumerate every matching in the edge set; return (allocation, f*).

    Guard: |E| <= 24 and min(n, m) <= 8.  Enumeration branches over the
    smaller side (one edge or none per ad, resp. per slot)."""
    edges = inst.edges
    if len(edges) > MAX_BF_EDGES or min(inst.num_ads, inst.num_slots) > MAX_BF_SIDE:
        raise OracleGuardError(
            "instance too large for brute force: |E|=%d, min(n,m)=%d "
            "(limits: %d, %d)" % (len(edges), min(inst.num_ads, inst.num_slots),
                                  MAX_BF_EDGES, MAX_BF_SIDE))
    by_ad = inst.num_ads <= inst.num_slots
    groups = {}
    for i, j, r in edges:
        groups.setdefault(i if by_ad else j, []).append((i, j, r))
    keys = sorted(groups)

    best = [(), 0.0]

    def walk(idx, chosen, used):
        if idx == len(keys):
            value = suffix_value(sorted((j, r) for _i, j, r in chosen),
                                 inst.quit_prob)
            if value > best[1]:
                best[0], best[1] = tuple(chosen), value
            return
        walk(idx + 1, chosen, used)  # leave this ad/slot empty
        for (i, j, r) in groups[keys[idx]]:
            other = j if by_ad else i
            if other in used:
                continue
            used.add(other)
            chosen.append((i, j, r))
            walk(idx + 1, chosen, used)
            chosen.pop()
            used.remove(other)

    walk(0, [], set())
    alloc = Allocation(entries=tuple((j, i) for i, j, _r in best[0]),
                       mode=Mode.MATCHING)
    return alloc, best[1]


def brute_force_mapping(inst):
    """Exact solver for the reusable-ads variant; return (allocation, f*).

    For a fixed set of occupied slots the objective separates per slot, so
    each occupied slot takes its max-reward incident ad and only the 2^m
    occupied-slot subsets need enumeration.  Guard: m <= 16."""
    if inst.num_slots > MAX_BF_SLOTS:
        raise OracleGuardError("brute-force mapping limited to m <= %d slots, "
                               "got %d" % (MAX_BF_SLOTS, inst.num_slots))
    best_edge = {}  # slot -> (reward, ad); ties keep the lowest ad index
    for j in range(1, inst.num_slots + 1):
        ads, rewards = inst.row(j)
        if ads:
            r = max(rewards)
            best_edge[j] = (r, ads[rewards.index(r)])
    slots = sorted(best_edge)
    best_value, best_mask = 0.0, 0
    for mask in range(1 << len(slots)):
        pairs = [(j, best_edge[j][0]) for idx, j in enumerate(slots)
                 if mask >> idx & 1]
        value = suffix_value(pairs, inst.quit_prob)
        if value > best_value:
            best_value, best_mask = value, mask
    entries = [(j, best_edge[j][1]) for idx, j in enumerate(slots)
               if best_mask >> idx & 1]
    return Allocation(entries=tuple(entries), mode=Mode.MAPPING), best_value


@dataclass
class SessionTrace:
    """One simulated user session."""

    viewed: tuple        # ordered ("item", j) / ("ad", j) elements
    quit_position: int | None  # 1-based index of the last viewed element, or
                               # None if the user reached the end of the feed
    reward: float


def sample_session(inst, alloc, rng):
    """Walk the feed element by element with one quit coin after each view."""
    occupied = dict(checked_pairs(inst, alloc))  # slot -> reward
    viewed = []
    reward = 0.0
    for j in range(1, inst.num_slots + 1):
        viewed.append(("item", j))
        if rng.random() < inst.quit_prob:
            return SessionTrace(tuple(viewed), len(viewed), reward)
        if j in occupied:
            viewed.append(("ad", j))
            reward += occupied[j]
            if rng.random() < inst.quit_prob:
                return SessionTrace(tuple(viewed), len(viewed), reward)
    return SessionTrace(tuple(viewed), None, reward)


@dataclass
class SimulationResult:
    mean: float
    stderr: float
    sessions: int


def simulate_sessions(inst, alloc, sessions, seed):
    """Monte-Carlo estimate of the expected session reward.

    The number of viewed elements is geometric with success probability q
    (the quit coin is flipped after each view, so a reached element is always
    seen); an ad at slot j with b earlier ads occupies feed position
    j + b + 1 and is collected iff that many elements are viewed.
    """
    if sessions < 1:
        raise ValueError("sessions must be >= 1")
    pairs = checked_pairs(inst, alloc)
    q = inst.quit_prob
    positions = np.array([j + b + 1 for b, (j, _r) in enumerate(pairs)],
                         dtype=np.int64)
    cum = np.concatenate([[0.0], np.cumsum([r for _j, r in pairs])])
    if q == 0.0:
        # every session views the whole feed and collects every allocated ad
        return SimulationResult(mean=float(cum[-1]), stderr=0.0,
                                sessions=sessions)
    s1 = s2 = 0.0
    for chunk_index, done in enumerate(range(0, sessions, SIM_CHUNK)):
        rng = np.random.default_rng([seed, chunk_index])
        views = rng.geometric(q, size=min(SIM_CHUNK, sessions - done))
        x = cum[np.searchsorted(positions, views, side="right")]
        s1 += float(x.sum())
        s2 += float((x * x).sum())
    mean = s1 / sessions
    if sessions > 1:
        var = max(s2 - sessions * mean * mean, 0.0) / (sessions - 1)
        stderr = math.sqrt(var / sessions)
    else:
        stderr = float("inf")
    return SimulationResult(mean=mean, stderr=stderr, sessions=sessions)
