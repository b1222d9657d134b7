"""Matching engine against exhaustive enumeration and an integer program."""

import itertools
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

import feedalloc
from feedalloc import matching
from feedalloc.baselines import _static_weights
from feedalloc.generators import GeneratorConfig, generate
from feedalloc.matching import (constrained_max_weight_matching,
                                max_weight_matching)
from full_set_pruning import full_set_constrained_matching


def _best_matching_weight(edges, k=None):
    """Exhaustive oracle: best total weight of a matching of size <= k."""
    best = 0.0
    max_size = len(edges) if k is None else min(k, len(edges))
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(edges, size):
            ads = [i for i, _, _ in combo]
            slots = [j for _, j, _ in combo]
            if len(set(ads)) < size or len(set(slots)) < size:
                continue
            best = max(best, sum(w for _, _, w in combo))
    return best


def _random_edges(rng, n_max=5, m_max=5, p=0.6):
    """Random edges; half the graphs draw tie-heavy integer weights 0..3."""
    ties = rng.random() < 0.5
    edges = []
    for i in range(1, rng.randint(1, n_max) + 1):
        for j in range(1, rng.randint(1, m_max) + 1):
            if rng.random() < p:
                w = (float(rng.randint(0, 3)) if ties
                     else round(rng.uniform(0.0, 10.0), 3))
                edges.append((i, j, w))
    return edges


def _check_matching(edges, pairs, weight):
    """``pairs`` is a matching over ``edges`` and ``weight`` its total."""
    weights = {(i, j): w for i, j, w in edges}
    assert pairs == sorted(pairs)
    assert len({i for i, _ in pairs}) == len(pairs)
    assert len({j for _, j in pairs}) == len(pairs)
    assert all(weights[p] > 0.0 for p in pairs)
    assert weight == pytest.approx(sum(weights[p] for p in pairs), abs=1e-9)


def test_max_weight_matching_equals_enumeration():
    rng = random.Random(31)
    for _ in range(200):
        edges = _random_edges(rng)
        if len(edges) > 12:
            continue
        pairs, weight = max_weight_matching(edges)
        _check_matching(edges, pairs, weight)
        assert weight == pytest.approx(_best_matching_weight(edges), abs=1e-9)


def test_constrained_matching_equals_enumeration():
    rng = random.Random(32)
    for _ in range(200):
        edges = _random_edges(rng)
        if len(edges) > 12:
            continue
        for k in (0, 1, 2, 3, 5):
            pairs, weight = constrained_max_weight_matching(edges, k)
            _check_matching(edges, pairs, weight)
            assert len(pairs) <= k
            assert weight == pytest.approx(_best_matching_weight(edges, k),
                                           abs=1e-9)


def _milp_matching_weight(edges, k=None):
    """Exact integer program: best total weight of a matching of <= k
    edges (one binary variable per edge)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    ads = sorted({i for i, _, _ in edges})
    slots = sorted({j for _, j, _ in edges})
    a = np.zeros((len(ads) + len(slots) + 1, len(edges)))
    for e, (i, j, _w) in enumerate(edges):
        a[ads.index(i), e] = 1.0
        a[len(ads) + slots.index(j), e] = 1.0
    a[-1, :] = 1.0
    ub = np.ones(len(a))
    ub[-1] = len(edges) if k is None else k
    res = milp(-np.array([w for _, _, w in edges]),
               constraints=LinearConstraint(a, -np.inf, ub),
               integrality=np.ones(len(edges)), bounds=Bounds(0, 1),
               options={"mip_rel_gap": 0.0})
    assert res.success
    return -res.fun


def test_mid_size_matching_equals_integer_program():
    # ~20x30 graphs with tie-heavy integer weights: vertex degrees exceed k
    # and more than 2k(k-1)+1 edges survive the per-vertex cuts, so every
    # pruning step of the capped solver is active
    rng = random.Random(33)
    for _ in range(12):
        edges = [(i, j, float(rng.randint(0, 4)))
                 for i in range(1, rng.randint(15, 20) + 1)
                 for j in range(1, rng.randint(25, 30) + 1)
                 if rng.random() < 0.5]
        for k in (None, 1, 2, 3, 5):
            if k is None:
                pairs, weight = max_weight_matching(edges)
            else:
                pairs, weight = constrained_max_weight_matching(edges, k)
                assert len(pairs) <= k
            _check_matching(edges, pairs, weight)
            assert weight == pytest.approx(_milp_matching_weight(edges, k),
                                           abs=1e-6)


def test_parallel_edges_keep_the_heaviest():
    edges = [(1, 1, 2.0), (1, 1, 5.0), (2, 1, 4.0), (1, 1, 3.0)]
    assert max_weight_matching(edges) == ([(1, 1)], 5.0)
    assert constrained_max_weight_matching(edges, 1) == ([(1, 1)], 5.0)


def test_distinct_edges_whose_float_keys_collide():
    # ad * (max_slot + 1) + slot rounds to the same float64 for both edges
    # (2**54 + 2**30 - 1 and 2**54 + 2**30 + 1), yet ads and slots differ
    edges = [(2 ** 24, 2 ** 30 - 1, 1.0), (2 ** 24 + 1, 1, 1.0)]
    want = ([(2 ** 24, 2 ** 30 - 1), (2 ** 24 + 1, 1)], 2.0)
    for order in (edges, edges[::-1]):
        assert max_weight_matching(order) == want
        assert constrained_max_weight_matching(order, 2) == want


def test_sorted_parallel_edges_keep_the_heaviest():
    # (slot, ad) pairs that ascend but not strictly still take the dedupe
    edges = [(1, 1, 2.0), (1, 1, 5.0), (2, 1, 4.0), (2, 2, 1.0), (2, 2, 0.5)]
    assert max_weight_matching(edges) == ([(1, 1), (2, 2)], 6.0)
    assert constrained_max_weight_matching(edges, 1) == ([(1, 1)], 5.0)


def test_import_does_not_load_scipy():
    # the solver imports scipy on first use, keeping ``import feedalloc``
    # cheap for commands that never match
    src = os.path.dirname(os.path.dirname(feedalloc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, feedalloc; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_zero_weight_edges_are_not_forced():
    pairs, weight = max_weight_matching([(1, 1, 0.0), (2, 2, 0.0)])
    assert pairs == [] and weight == 0.0


def test_empty_edge_list():
    assert max_weight_matching([]) == ([], 0.0)
    assert constrained_max_weight_matching([], 3) == ([], 0.0)


def test_rejects_bad_weights():
    with pytest.raises(ValueError):
        constrained_max_weight_matching([(1, 1, -1.0)], 1)
    with pytest.raises(ValueError):
        constrained_max_weight_matching([(1, 1, float("nan"))], 1)


def test_stop_at_nonnegative_cost_matches_matching_rule():
    # one profitable pair and one zero pair: only the profitable one is taken
    pairs, weight = constrained_max_weight_matching(
        [(1, 1, 4.0), (2, 2, 0.0)], k=2)
    assert pairs == [(1, 1)] and weight == pytest.approx(4.0)


def test_indices_of_2_53_or_more_are_refused():
    # float64 rounds 2**53 + 1 onto 2**53: the two ads would merge, and the
    # returned pair would name an ad that is not in the input
    edges = [(2 ** 53 + 1, 1, 1.0), (2 ** 53, 2, 1.0)]
    for solve in (max_weight_matching,
                  lambda e: constrained_max_weight_matching(e, 1)):
        with pytest.raises(ValueError, match=r"^edge \(9007199254740993, 1, "
                           r"1\.0\): ad and slot must be below 2\*\*53"):
            solve(edges)
        with pytest.raises(ValueError, match=r"^edge \(1, 9007199254740992"):
            solve([(1, 1, 1.0), (1, 2 ** 53, 1.0)])
    below = [(2 ** 53 - 1, 1, 1.0), (2 ** 53 - 2, 2, 1.0)]
    assert max_weight_matching(below) \
        == ([(2 ** 53 - 2, 2), (2 ** 53 - 1, 1)], 2.0)


@pytest.mark.parametrize("edge", [(1.5, 1, 1.0), (float("nan"), 1, 1.0),
                                  (1, float("-inf"), 1.0)])
def test_non_integer_indices_are_refused(edge):
    # float64 would read 1.5 as ad 1, next to a real ad 1, and cast NaN or
    # -inf to the index -2**63
    for solve in (max_weight_matching,
                  lambda e: constrained_max_weight_matching(e, 1)):
        with pytest.raises(ValueError, match=r"^edge \(%s\): ad and slot must "
                           r"be below 2\*\*53 in magnitude and integers$"
                           % re.escape(", ".join(map(repr, edge)))):
            solve([(1, 1, 0.5), edge])


def test_cap_must_equal_its_int():
    edges = [(1, 1, 1.0), (2, 2, 2.0), (3, 3, 3.0)]
    want = ([(2, 2), (3, 3)], 5.0)
    assert constrained_max_weight_matching(edges, 2.0) == want
    assert constrained_max_weight_matching(edges, np.int64(2)) == want
    for k in (2.5, float("nan"), float("inf"), "2", None):
        with pytest.raises(ValueError, match=r"^cap k = %s must be an integer$"
                           % re.escape(repr(k))):
            constrained_max_weight_matching(edges, k)


@pytest.fixture
def passes(monkeypatch):
    """The edge count of each per-slot-then-per-ad pruning pass
    (``matching._keep_top``) of the capped calls that follow."""
    sizes = []
    keep_top = matching._keep_top

    def spy(e, k):
        sizes.append(len(e))
        return keep_top(e, k)

    monkeypatch.setattr(matching, "_keep_top", spy)
    return sizes


def _same_as_full_set(edges, k, passes):
    """The capped matcher returns the full-set oracle's pairs and total;
    the edge counts its pruning passes read."""
    del passes[:]
    assert constrained_max_weight_matching(edges, k) \
        == full_set_constrained_matching(edges, k)
    return list(passes)


def _tie_heavy(rng, n, m, p, weights=(0, 1, 2, 3)):
    """Edges of an n x m graph, each kept with probability p, with integer
    weights drawn from ``weights``; half the graphs come shuffled."""
    edges = [(i, j, float(rng.choice(weights)))
             for i in range(1, n + 1) for j in range(1, m + 1)
             if rng.random() < p]
    if rng.random() < 0.5:
        rng.shuffle(edges)      # ties are broken by input order
    return edges


def test_prefix_pruning_equals_the_full_set_pruning(passes):
    # large enough that the prefix is taken, and tie-heavy, so the threshold
    # weight has many edges: the prefix keeps all of them and is enough
    # alone, where one without the threshold's ties falls short
    rng = random.Random(34)
    for k in (1, 2, 3, 5):
        t = matching.PREFIX * (2 * k * (k - 1) + 1)
        for _ in range(6):
            edges = _tie_heavy(rng, 70, 70, 0.7)
            positive = sum(w > 0.0 for _, _, w in edges)
            assert positive > t
            sizes = _same_as_full_set(edges, k, passes)
            assert len(sizes) == 1 and t <= sizes[0] < positive


def test_small_prefix_takes_both_passes(passes, monkeypatch):
    # a prefix of 2k(k-1) + 1 edges: random graphs take the prefix alone,
    # fall back to all edges, or read all edges at once
    monkeypatch.setattr(matching, "PREFIX", 1)
    rng = random.Random(35)
    kinds = set()
    for _ in range(300):
        edges = _tie_heavy(rng, rng.randint(1, 12), rng.randint(1, 12),
                           rng.uniform(0.3, 1.0))
        edges += rng.sample(edges, len(edges) // 4)     # parallel edges
        pairs = len({(i, j) for i, j, w in edges if w > 0.0})
        sizes = _same_as_full_set(edges, rng.randint(1, 6), passes)
        kinds.add("empty" if not pairs else "fallback" if len(sizes) == 2
                  else "all edges" if sizes == [pairs] else "prefix alone")
    assert kinds == {"empty", "all edges", "prefix alone", "fallback"}


def test_short_prefix_falls_back_to_all_edges(passes):
    # one ad owns the heaviest edges: the prefix holds its edges only, and
    # a solve on what it keeps would match that ad alone
    rng = random.Random(36)
    owner = [(i + 1, j, w) for i, j, w in _tie_heavy(rng, 10, 500, 0.5,
                                                      (1, 2, 3))]
    owner += [(1, j, 10.0 + j % 7) for j in range(1, 501)]
    # equal weights per slot, as in finely_targeted: each slot keeps the
    # same k ads, so k * k < 2k(k-1) + 1 edges survive the prefix
    equal = [(i, j, 0.9 ** j) for j in range(1, 61) for i in range(1, 61)]
    for edges, caps in ((owner, (2, 3)), (equal, (2, 3, 5))):
        for k in caps:
            positive = sum(w > 0.0 for _, _, w in edges)
            sizes = _same_as_full_set(edges, k, passes)
            assert len(sizes) == 2 and sizes[0] < positive == sizes[1]


@pytest.mark.parametrize("config", [
    GeneratorConfig(scheme, n=100, m=1000, q=0.1, seed=1)
    for scheme in ("symmetric", "heavy_top", "heavy_bottom",
                   "finely_targeted")] + [GeneratorConfig("session_blocks")],
    ids=lambda config: config.scheme)
def test_scheme_static_weights_keep_the_full_set_pruning(config, passes):
    # flow's k(0.1) = 9 on the static weights: finely_targeted's equal
    # rewards per slot make its prefix fall short
    sizes = _same_as_full_set(_static_weights(generate(config)), 9, passes)
    assert len(sizes) == (2 if config.scheme == "finely_targeted" else 1)
