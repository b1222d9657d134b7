"""k-limit pruning and greedy truncation."""

import random
from fractions import Fraction

import pytest

from conftest import make_rng, random_matching, sparse_instance
from feedalloc.baselines import forward_greedy, global_greedy
from feedalloc.core import (Allocation, ProblemInstance, expected_reward,
                            suffix_reward)
from feedalloc.postprocess import prune_to_k


def _inst(n, m, q, edges):
    return ProblemInstance(num_ads=n, num_slots=m, quit_prob=q,
                           edges=tuple(edges))


def naive_prune_step(inst, alloc):
    """Reference single removal: scan entries in slot order and keep the
    min-loss candidate, preferring the highest slot on ties."""
    current = expected_reward(inst, alloc)
    best = None
    for idx, entry in enumerate(alloc.entries):
        trial = alloc.entries[:idx] + alloc.entries[idx + 1:]
        loss = current - expected_reward(inst, Allocation(trial, alloc.mode))
        if best is None or loss < best[0] or (loss == best[0]
                                              and entry[0] > best[1]):
            best = (loss, entry[0], trial)
    return Allocation(best[2], alloc.mode)


def exact_prune_slots(pairs, q, k):
    """The greedy removal sequence in exact arithmetic: while more than k
    slot-sorted (slot, reward) pairs remain, remove the one whose removal
    loses the least f(M), the highest slot on ties.  Returns the kept
    slots.  Every value is divided by (1-q)^base, a positive factor common
    to all of them, which keeps the exact powers small."""
    s, base = 1 - Fraction(q), pairs[0][0] - 1

    def value(kept):
        return sum(Fraction(r) * s ** (j - base + b)
                   for b, (j, r) in enumerate(kept))

    pairs = list(pairs)
    while len(pairs) > k:
        current = value(pairs)
        _loss, _slot, p = min((current - value(pairs[:p] + pairs[p + 1:]),
                               -pairs[p][0], p) for p in range(len(pairs)))
        del pairs[p]
    return [j for j, _r in pairs]


@pytest.mark.parametrize("offset", [0, 8000])
def test_prune_agrees_with_exact_greedy_where_discounts_underflow(offset):
    # past slot ~7000, (1-q)^(slot + rank) is 0.0 in doubles at q = 0.1, so
    # a loss computed as that power times (r - q f) loses its sign
    pairs = [(offset + j, r) for j, r in enumerate((0.01, 10, 10, 10, 1), 1)]
    inst = _inst(5, offset + 5, 0.1, [(j - offset, j, r) for j, r in pairs])
    alloc = Allocation(entries=tuple((j, j - offset) for j, _r in pairs))
    kept = [j for j, _i in prune_to_k(inst, alloc, 3).entries]
    assert kept == exact_prune_slots(pairs, 0.1, 3) \
        == [offset + 2, offset + 3, offset + 4]
    rng = random.Random(offset)
    for _ in range(12):
        slots = sorted(rng.sample(range(offset + 1, offset + 60), 6))
        pairs = [(j, rng.uniform(0.01, 10.0)) for j in slots]
        inst = _inst(6, offset + 60, 0.1,
                     [(i, j, r) for i, (j, r) in enumerate(pairs, 1)])
        alloc = Allocation(entries=tuple((j, i)
                                         for i, j in enumerate(slots, 1)))
        k = rng.randrange(6)
        assert [j for j, _i in prune_to_k(inst, alloc, k).entries] \
            == exact_prune_slots(pairs, 0.1, k)


def test_prune_matches_naive_step_oracle():
    rng = make_rng(61)
    for _ in range(200):
        inst = sparse_instance(rng, n_max=8, m_max=12,
                               q_choices=(0.0, 0.1, 0.3, 0.6, 0.9))
        alloc = random_matching(inst, rng)
        # every k: k = len - t must equal t naive removal steps
        naive = alloc
        for k in range(len(alloc) - 1, -1, -1):
            naive = naive_prune_step(inst, naive)
            assert prune_to_k(inst, alloc, k).entries == naive.entries


def test_prune_tie_removes_highest_slot():
    # q = 0: removal losses equal the removed reward, so slots 1 and 2 tie
    inst = _inst(2, 2, 0.0, [(1, 1, 3.0), (2, 2, 3.0)])
    alloc = Allocation(entries=((1, 1), (2, 2)))
    pruned = prune_to_k(inst, alloc, 1)
    assert pruned.entries == ((1, 1),)


def test_prune_leaves_the_checked_pairs_alone():
    # prune_to_k removes entries from a copy of the pairs remembered on the
    # allocation; a second run and every suffix value must see them unchanged
    rng = make_rng(63)
    for _ in range(30):
        inst = sparse_instance(rng)
        alloc = random_matching(inst, rng)
        before = [suffix_reward(inst, alloc, j)
                  for j in range(inst.num_slots + 1)]
        first = prune_to_k(inst, alloc, len(alloc) // 2)
        assert prune_to_k(inst, alloc, len(alloc) // 2).entries \
            == first.entries
        assert [suffix_reward(inst, alloc, j)
                for j in range(inst.num_slots + 1)] == before


def test_prune_to_zero_and_noop():
    rng = make_rng(62)
    inst = sparse_instance(rng)
    alloc = random_matching(inst, rng)
    assert prune_to_k(inst, alloc, len(alloc)).entries == alloc.entries
    assert prune_to_k(inst, alloc, 0).entries == ()
    with pytest.raises(ValueError):
        prune_to_k(inst, alloc, -1)


def test_prune_can_only_help_among_same_size():
    # pruning removes the weakest entries first: the kept value dominates
    # dropping any single other entry instead
    rng = make_rng(63)
    for _ in range(30):
        inst = sparse_instance(rng)
        alloc = random_matching(inst, rng)
        if len(alloc) < 2:
            continue
        k = len(alloc) - 1
        kept = expected_reward(inst, prune_to_k(inst, alloc, k))
        for idx in range(len(alloc)):
            trial = alloc.entries[:idx] + alloc.entries[idx + 1:]
            other = expected_reward(inst, Allocation(trial, alloc.mode))
            assert kept >= other - 1e-12


def test_truncate_greedy_run_stops_at_k():
    rng = make_rng(64)
    inst = sparse_instance(rng, n_max=8, m_max=10)
    full = global_greedy(inst)
    k = max(len(full.allocation) - 1, 0)
    for algorithm in (global_greedy, forward_greedy):
        report = algorithm(inst, max_assignments=k)
        assert len(report.allocation) <= k
