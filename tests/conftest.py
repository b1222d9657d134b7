"""Shared helpers: seeded random instances and random valid allocations."""

import random

from hypothesis import strategies as st

from feedalloc.core import Allocation, Mode, ProblemInstance


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
