"""Shared helpers: seeded random instances, random valid allocations and
the suffix vectors of a solver trace."""

import random

from hypothesis import strategies as st

from feedalloc.core import Allocation, Mode, ProblemInstance, suffix_value


def sparse_instance(rng, n_max=5, m_max=6, q_choices=(0.0, 0.1, 0.3, 0.6),
                    max_edges=None, min_reward=0.1, max_reward=10.0):
    """A random sparse instance; every (i, j) pair kept independently."""
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    q = rng.choice(q_choices)
    density = rng.uniform(0.3, 1.0)
    edges = []
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if rng.random() < density:
                edges.append((i, j, round(rng.uniform(min_reward, max_reward), 3)))
    if max_edges is not None and len(edges) > max_edges:
        edges = rng.sample(edges, max_edges)
        edges.sort()
    return ProblemInstance(num_ads=n, num_slots=m, quit_prob=q,
                           edges=tuple(edges))


def random_matching(inst, rng):
    """A random valid matching-mode allocation of the instance."""
    edges = list(inst.edges)
    rng.shuffle(edges)
    used_ads, used_slots, entries = set(), set(), []
    for i, j, _r in edges:
        if i in used_ads or j in used_slots or rng.random() < 0.4:
            continue
        used_ads.add(i)
        used_slots.add(j)
        entries.append((j, i))
    return Allocation(entries=tuple(entries), mode=Mode.MATCHING)


def replay_trace(logs, initial=()):
    """The allocation before the first record of a ``backwards_greedy`` or
    ``nonoblivious_backwards_greedy`` trace and after each record, as
    slot-sorted (slot, ad) entries.  It starts at the (slot, ad) pairs of
    ``initial``; a committed record adds (slot, chosen), after freeing the
    chosen ad's previous slot if the record is a re-assignment.  Every slot
    is decided once, so a record's slot is always empty before it."""
    ad_at = dict(initial)                           # slot -> ad
    slot_of = {i: j for j, i in ad_at.items()}      # ad -> slot
    states = [tuple(sorted(ad_at.items()))]
    for rec in logs:
        assert rec.slot not in ad_at, rec
        if rec.committed:
            if rec.reassigned:
                del ad_at[slot_of[rec.chosen]]
            ad_at[rec.slot] = rec.chosen
            slot_of[rec.chosen] = rec.slot
        states.append(tuple(sorted(ad_at.items())))
    return states


def replay_suffixes(inst, logs, initial=()):
    """The suffix vectors (f_0(M), ..., f_m(M)) before and after each record
    of a trace, as (before, after) pairs, from ``replay_trace``; each f_j
    is the direct fold ``suffix_value`` at base j."""
    q, m = inst.quit_prob, inst.num_slots
    vectors = []
    for state in replay_trace(logs, initial):
        pairs = [(j, inst.reward(i, j)) for j, i in state]
        vectors.append(tuple(suffix_value(pairs, q, base)
                             for base in range(m + 1)))
    return list(zip(vectors, vectors[1:]))


def make_rng(seed):
    return random.Random(seed)


def allocation_file_bytes():
    """Contents for an allocation file: lines of integer-like and junk
    tokens, arbitrary text, or arbitrary bytes."""
    token = st.one_of(st.integers(-2, 6).map(str),
                      st.sampled_from(("1.5", "x", "+3", "0x1", "1_0")),
                      st.text(max_size=3))
    line = st.tuples(st.lists(token, max_size=4),
                     st.sampled_from((" ", "\t", "  "))).map(
                         lambda t: t[1].join(t[0]))
    text = st.tuples(st.lists(line, max_size=6),
                     st.sampled_from(("\n", "\r\n", "\r"))).map(
                         lambda t: t[1].join(t[0]))
    return st.one_of(text, st.text()).map(
        lambda s: s.encode("utf-8", "surrogatepass")) | st.binary()
