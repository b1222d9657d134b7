"""Comparison algorithms against oracles and each other."""

import bisect
import heapq
import math

import numpy as np
import pytest

from conftest import make_rng, sparse_instance
from feedalloc.baselines import (_static_weights, auto_threshold,
                                 flow_baseline, flow_cardinality, flow_greedy,
                                 forward_greedy, global_greedy, mwm_baseline,
                                 online_threshold)
from feedalloc.core import (Allocation, Mode, ProblemInstance,
                            discount_powers, expected_reward)
from feedalloc.generators import (GeneratorConfig, gen_adversarial,
                                  gen_finely_targeted, gen_session_blocks,
                                  gen_session_youtube, gen_symmetric, generate)
from feedalloc.matching import (constrained_max_weight_matching,
                                max_weight_matching)
from feedalloc.oracle import brute_force_matching
from suffix_tree import SuffixTree


def _inst(n, m, q, edges):
    return ProblemInstance(num_ads=n, num_slots=m, quit_prob=q,
                           edges=tuple(edges))


def _contributions(inst, entries):
    """Slot-sorted entry slots plus the suffix sums of each entry's current
    contribution r * (1-q)^(slot + B(slot))."""
    s = 1.0 - inst.quit_prob
    slots = [j for j, _ in entries]
    contribs = [inst.reward(i, j) * s ** (j + pos)
                for pos, (j, i) in enumerate(entries)]
    tail = [0.0] * (len(entries) + 1)
    for idx in range(len(entries) - 1, -1, -1):
        tail[idx] = tail[idx + 1] + contribs[idx]
    return slots, tail


def _marginal_gain(inst, slots, tail, i, j):
    """Exact f(M + (i,j)) - f(M) for a free ad/slot pair: the new edge's own
    discounted reward minus q times the contributions it pushes down."""
    s = 1.0 - inst.quit_prob
    pos = bisect.bisect_left(slots, j)
    return inst.reward(i, j) * s ** (j + pos) - inst.quit_prob * tail[pos]


def naive_global_greedy(inst, max_assignments=None):
    """Reference implementation: re-evaluate every feasible edge's marginal
    gain each round, commit the best strictly positive one, tie-break to the
    lexicographically smallest (slot, ad)."""
    entries = []
    used_ads, used_slots = set(), set()
    limit = len(inst.edges) if max_assignments is None else max_assignments
    while len(entries) < limit:
        slots, tail = _contributions(inst, entries)
        best = None
        for i, j, _r in sorted(inst.edges, key=lambda e: (e[1], e[0])):
            if i in used_ads or j in used_slots:
                continue
            g = _marginal_gain(inst, slots, tail, i, j)
            if best is None or g > best[0]:
                best = (g, j, i)
        if best is None or best[0] <= 0.0:
            break
        _g, j, i = best
        bisect.insort(entries, (j, i))
        used_ads.add(i)
        used_slots.add(j)
    return Allocation(entries=tuple(entries), mode=Mode.MATCHING)


def edge_heap_global_greedy(inst, max_assignments=None):
    """Reference implementation: the lazy global greedy with one heap entry
    per edge.  Same closed-form gains from a ``SuffixTree`` and the same
    re-cache rule as ``global_greedy``, but every edge is a candidate, so
    ties break to the smallest (j, i) even where gains round equal.
    Returns the allocation's entries and the number of heap pops."""
    q = inst.quit_prob
    limit = math.inf if max_assignments is None else max_assignments
    tree = SuffixTree(inst.num_slots, q)
    powers = tree.powers
    entries = []
    used_ads, used_slots = set(), set()
    heap = [(-(r * powers[j]), j, i, r) for i, j, r in inst.edges]
    heapq.heapify(heap)
    pops = 0
    while heap and len(entries) < limit:
        _neg_bound, j, i, r = heapq.heappop(heap)
        pops += 1
        if i in used_ads or j in used_slots:
            continue
        after, fj = tree.suffix(j)
        g = powers[j + len(entries) - after] * (r - q * fj)
        fresh = (-g, j, i, r)
        if heap and heap[0] < fresh:
            heapq.heappush(heap, fresh)
            continue
        if g <= 0.0:
            break
        entries.append((j, i))
        used_ads.add(i)
        used_slots.add(j)
        tree.insert(j, r)
    return tuple(sorted(entries)), pops


def _integer_rewards(inst):
    """The same edges with rewards rounded to integers, so gains tie."""
    return _inst(inst.num_ads, inst.num_slots, inst.quit_prob,
                 [(i, j, float(round(r))) for i, j, r in inst.edges])


def test_lazy_global_greedy_matches_naive():
    rng = make_rng(41)
    for idx in range(100):
        tie_heavy = idx % 2 == 1
        inst = sparse_instance(rng, n_max=8, m_max=10,
                               q_choices=(0.0, 0.1, 0.3, 0.6, 0.9),
                               max_reward=3.0 if tie_heavy else 10.0)
        if tie_heavy:
            inst = _integer_rewards(inst)
        for k in (None, 2):
            lazy = global_greedy(inst, max_assignments=k)
            naive = naive_global_greedy(inst, max_assignments=k)
            assert lazy.allocation.entries == naive.entries


def _float_instance(seed, n, m, q, density):
    """Unrounded uniform rewards, so exact gain ties have probability 0."""
    rng = make_rng(seed)
    return _inst(n, m, q, [(i, j, rng.uniform(0.1, 10.0))
                           for i in range(1, n + 1) for j in range(1, m + 1)
                           if rng.random() < density])


@pytest.mark.parametrize("build", [
    lambda seed: gen_session_blocks(m=200, seed=seed, blocks=3,
                                    categories=10, slots_per_block=20),
    lambda seed: gen_symmetric(30, 200, seed=seed, integer=True),
    lambda seed: gen_finely_targeted(30, 200, seed=seed),
    # 0.9 ** 8000 == 0.0 in float64; every f is relative to its own slot
    lambda seed: _float_instance(seed, 20, 8000, 0.1, 0.01),
    # at q near 0 the gain barely depends on the slot, so commits come in
    # no slot order: most land above entries committed earlier and make
    # them stale, and a re-evaluation below refreshes many of them at once
    lambda seed: _float_instance(seed, 400, 400, 0.0, 0.02),
    lambda seed: _float_instance(seed, 400, 400, 0.001, 0.02),
], ids=["session_blocks", "symmetric_integer", "finely_targeted",
        "discounts_underflow", "q0", "q0.001"])
def test_slot_heap_matches_edge_heap_oracle(build):
    for seed in range(1, 6):
        inst = build(seed)
        for k in (None, 5):
            report = global_greedy(inst, max_assignments=k)
            entries, pops = edge_heap_global_greedy(inst, max_assignments=k)
            assert report.allocation.entries == entries, (seed, k)
            assert report.counters["pops"] <= pops


def test_equal_rewards_at_one_slot_go_to_smallest_ad():
    inst = _inst(3, 1, 0.1, [(3, 1, 2.0), (1, 1, 2.0), (2, 1, 2.0)])
    assert global_greedy(inst).allocation.entries == ((1, 1),)
    assert naive_global_greedy(inst).entries == ((1, 1),)


def test_equal_gains_at_two_slots_go_to_smaller_slot():
    # q = 0.5 keeps the arithmetic exact.  Ad 2 takes slot 3 first; ad 1
    # then gains 0.25 at slot 1 (re-evaluated first) and at slot 2, and the
    # smaller slot must win
    inst = _inst(2, 3, 0.5, [(1, 1, 2.0), (1, 2, 4.0), (2, 3, 12.0)])
    assert global_greedy(inst).allocation.entries == ((1, 1), (3, 2))
    assert naive_global_greedy(inst).entries == ((1, 1), (3, 2))


def test_slot_moves_past_an_ad_committed_elsewhere():
    # ad 1 is the best candidate of both slots; once it takes slot 1, slot 2
    # falls back to ad 2 without a heap entry of its own
    inst = _inst(2, 2, 0.1, [(1, 1, 10.0), (1, 2, 9.0), (2, 2, 5.0)])
    report = global_greedy(inst)
    assert report.allocation.entries == ((1, 1), (2, 2))
    assert report.allocation.entries == naive_global_greedy(inst).entries
    # ad 1 is never scored at slot 2
    assert report.counters == {"pops": 2, "gain_evals": 2, "commits": 2}


def test_rounded_gain_tie_takes_larger_reward():
    # 1.201 and the next float up give the same gain 0.9 * r at slot 1;
    # the per-slot order takes the larger reward where the edge heap and
    # the naive oracle take the smaller ad index
    low, high = 1.201, math.nextafter(1.201, math.inf)
    assert 0.9 * low == 0.9 * high
    inst = _inst(2, 1, 0.1, [(1, 1, low), (2, 1, high)])
    assert global_greedy(inst).allocation.entries == ((1, 2),)
    assert edge_heap_global_greedy(inst)[0] == ((1, 1),)
    assert naive_global_greedy(inst).entries == ((1, 1),)


def test_global_greedy_respects_assignment_cap():
    rng = make_rng(43)
    inst = sparse_instance(rng, n_max=8, m_max=10)
    full = global_greedy(inst)
    for k in range(len(full.allocation)):
        capped = global_greedy(inst, max_assignments=k)
        assert len(capped.allocation) == k
        # the capped run is a prefix of the full run's commit sequence
        assert set(capped.allocation.entries) <= set(full.allocation.entries)


def test_forward_greedy_takes_best_reward_per_slot():
    inst = _inst(2, 2, 0.1, [(1, 1, 1.0), (2, 1, 3.0), (1, 2, 9.0)])
    report = forward_greedy(inst)
    assert report.allocation.entries == ((1, 2), (2, 1))


def test_forward_greedy_skips_zero_rewards():
    inst = _inst(1, 2, 0.1, [(1, 1, 0.0)])
    assert len(forward_greedy(inst).allocation) == 0


def test_auto_threshold_is_best_first_slot_reward():
    inst = _inst(3, 2, 0.1, [(1, 1, 2.0), (2, 1, 7.0), (3, 2, 9.0)])
    assert auto_threshold(inst) == 7.0
    # threshold gate is strict: only the slot-2 ad beats 7.0
    report = online_threshold(inst)
    assert report.allocation.entries == ((2, 3),)


def test_online_threshold_explicit_value():
    inst = _inst(2, 2, 0.1, [(1, 1, 5.0), (2, 2, 3.0)])
    report = online_threshold(inst, threshold=4.0)
    assert report.allocation.entries == ((1, 1),)


def test_mwm_is_optimal_at_q_zero():
    rng = make_rng(44)
    for _ in range(50):
        inst = sparse_instance(rng, q_choices=(0.0,), max_edges=18)
        _alloc, opt = brute_force_matching(inst)
        assert mwm_baseline(inst).expected_reward == pytest.approx(
            opt, rel=1e-9, abs=1e-12)


def edge_tuple_static_weights(inst):
    """Reference implementation: the static weights r_ij * (1-q)^j as an
    (|E|, 3) array built from the ``edges`` tuple, in (slot, ad) order."""
    powers = np.array(discount_powers(inst.quit_prob, inst.num_slots + 1))
    edges = np.array(inst.edges, dtype=np.float64).reshape(-1, 3)
    edges[:, 2] *= powers[edges[:, 1].astype(np.intp)]
    return edges[np.lexsort((edges[:, 0], edges[:, 1]))]


def _weight_instances():
    for scheme in ("symmetric", "finely_targeted", "heavy_top",
                   "heavy_bottom"):
        yield generate(GeneratorConfig(scheme, n=12, m=40, seed=3))
    yield gen_adversarial(30, q=0.2)
    yield gen_session_blocks(m=60, seed=2, blocks=6, categories=5,
                             slots_per_block=4)
    yield gen_session_youtube(m=50, seed=2, num_categories=4, advertisers=3)
    rng = make_rng(50)
    for _ in range(50):
        yield sparse_instance(rng)
    yield _inst(4, 7, 0.2, [(3, 6, 1.0), (1, 2, 2.0), (3, 2, 0.5), (2, 6, 4.0)])
    for n, m in ((0, 0), (0, 5), (4, 0), (3, 3)):
        yield _inst(n, m, 0.1, [])


def test_static_weights_match_edge_tuple_oracle():
    for inst in _weight_instances():
        weights = _static_weights(inst)
        assert weights.dtype == np.float64
        assert np.array_equal(weights, edge_tuple_static_weights(inst))


def test_static_weights_strictly_ascend_by_slot_then_ad():
    # the order in which the matcher skips its parallel-edge step
    for inst in _weight_instances():
        keys = [(j, i) for i, j, _w in _static_weights(inst).tolist()]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def _shuffled_with_parallel_copies(weights, rng):
    """The same triples in random order, each with a lighter parallel copy
    (scaled by 1/2 or 0) added at random."""
    triples = [tuple(row) for row in weights.tolist()]
    triples += [(i, j, w * rng.choice((0.5, 0.0))) for i, j, w in triples
                if rng.random() < 0.5]
    rng.shuffle(triples)
    return triples


def _tie_heavy_instance(rng):
    """A sparse instance with integer rewards 1..3 at q = 0, so the
    weights are exact integers and many optima tie."""
    inst = sparse_instance(rng, n_max=8, m_max=10, q_choices=(0.0,))
    return _inst(inst.num_ads, inst.num_slots, 0.0,
                 [(i, j, float(rng.randint(1, 3))) for i, j, _r in inst.edges])


def test_matcher_on_instance_weights_equals_the_dedupe_path():
    rng = make_rng(51)
    instances = list(_weight_instances())
    instances += [_tie_heavy_instance(rng) for _ in range(30)]
    for inst in instances:
        weights = _static_weights(inst)
        edges = _shuffled_with_parallel_copies(weights, rng)
        for k in (None, 1, 2, 9):
            if k is None:
                fast = max_weight_matching(weights)
                slow = max_weight_matching(edges)
            else:
                fast = constrained_max_weight_matching(weights, k)
                slow = constrained_max_weight_matching(edges, k)
            assert fast[1] == slow[1], (inst, k)
            if fast[0] != slow[0]:
                # a tied optimum: the same total from other pairs
                weight = {(i, j): w for i, j, w in weights.tolist()}
                assert sum(map(weight.get, slow[0])) \
                    == sum(map(weight.get, fast[0]))
                assert len({i for i, _ in slow[0]}) == len(slow[0])
                assert len({j for _, j in slow[0]}) == len(slow[0])


def test_matchers_on_an_instance_without_edges():
    for n, m in ((0, 0), (0, 5), (4, 0), (3, 3)):
        inst = _inst(n, m, 0.1, [])
        assert _static_weights(inst).shape == (0, 3)
        for solver in (mwm_baseline, flow_baseline):
            report = solver(inst)
            assert report.allocation.entries == ()
            assert report.expected_reward == 0.0


def test_flow_cardinality_values():
    assert flow_cardinality(0.0, 5, 9) == 5
    assert flow_cardinality(0.1, 100, 1000) == 9
    assert flow_cardinality(0.5, 10, 10) == 1
    for q in (0.55, 0.6, 0.9):
        assert flow_cardinality(q, 100, 100) == 0


def test_flow_baseline_respects_cardinality():
    rng = make_rng(45)
    for _ in range(30):
        inst = sparse_instance(rng, q_choices=(0.1, 0.3, 0.5))
        k = flow_cardinality(inst.quit_prob, inst.num_ads, inst.num_slots)
        report = flow_baseline(inst)
        assert len(report.allocation) <= k


def test_flow_baseline_empty_for_large_q():
    rng = make_rng(46)
    for q in (0.55, 0.6, 0.9):
        inst = sparse_instance(rng, q_choices=(q,))
        assert len(flow_baseline(inst).allocation) == 0


def test_flow_greedy_dominates_flow():
    rng = make_rng(47)
    for _ in range(100):
        inst = sparse_instance(rng)
        base = flow_baseline(inst)
        augmented = flow_greedy(inst)
        assert augmented.expected_reward >= base.expected_reward - 1e-9
        # the flow phase assignments survive the sweep untouched
        assert set(base.allocation.entries) <= set(augmented.allocation.entries)


def test_flow_greedy_is_half_optimal():
    rng = make_rng(48)
    for _ in range(100):
        inst = sparse_instance(rng, max_edges=18)
        _alloc, opt = brute_force_matching(inst)
        assert flow_greedy(inst).expected_reward >= 0.5 * opt - 1e-9


def test_rewards_are_recomputed_not_trusted():
    rng = make_rng(49)
    inst = sparse_instance(rng)
    for solver in (global_greedy, forward_greedy, online_threshold,
                   mwm_baseline, flow_baseline, flow_greedy):
        report = solver(inst)
        assert report.expected_reward == pytest.approx(
            expected_reward(inst, report.allocation), rel=1e-12)
