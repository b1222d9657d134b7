"""Instance generators: shapes, ranges, determinism."""

import time

import numpy as np
import pytest

from feedalloc import generators
from feedalloc.core import ProblemInstance, write_instance
from feedalloc.generators import (SCHEMES, SIZED_SCHEMES, GeneratorConfig,
                                  _browse_permutation, gen_adversarial,
                                  gen_asymmetric, gen_finely_targeted,
                                  gen_session_blocks, gen_session_youtube,
                                  gen_symmetric, generate)


def test_all_generated_instances_validate():
    for scheme in ("symmetric", "heavy_top", "heavy_bottom",
                   "finely_targeted"):
        inst = generate(GeneratorConfig(scheme=scheme, n=5, m=8, q=0.1, seed=2))
        assert inst.num_ads == 5 and inst.num_slots == 8
        assert len(inst.edges) == 5 * 8  # complete bipartite


def test_generators_are_deterministic_in_seed():
    for scheme in ("symmetric", "finely_targeted", "session_youtube"):
        cfg = GeneratorConfig(scheme=scheme, n=4, m=20, q=0.1, seed=7)
        a = generate(cfg)
        b = generate(cfg)
        assert a.edges == b.edges
        c = generate(GeneratorConfig(scheme=scheme, n=4, m=20, q=0.1, seed=8))
        assert c.edges != a.edges


def test_symmetric_reward_range():
    inst = gen_symmetric(10, 20, seed=3)
    rewards = [r for _, _, r in inst.edges]
    assert all(1.0 <= r <= 10.0 for r in rewards)
    integer = gen_symmetric(10, 20, seed=3, integer=True)
    assert all(r == int(r) and 1 <= r <= 10 for _, _, r in integer.edges)


def test_asymmetric_position_profiles():
    top = gen_asymmetric(3, 10, seed=4, direction="top")
    bottom = gen_asymmetric(3, 10, seed=4, direction="bottom")
    # heavy-top vanishes at the last slot, heavy-bottom grows towards it
    assert all(r == 0.0 for _, j, r in top.edges if j == 10)
    mean_first = np.mean([r for _, j, r in bottom.edges if j <= 2])
    mean_last = np.mean([r for _, j, r in bottom.edges if j >= 9])
    assert mean_last > mean_first
    with pytest.raises(ValueError):
        gen_asymmetric(3, 10, direction="sideways")


def test_finely_targeted_one_spike_per_ad():
    inst = gen_finely_targeted(8, 15, seed=5)
    for i in range(1, 9):
        row = [r for a, _, r in inst.edges if a == i]
        assert sorted(set(row)) in ([1.0, 10.0], [1.0])
        assert row.count(10.0) <= 1


def test_adversarial_chain_structure():
    inst = gen_adversarial(m=10, C=2.0 ** 19, q=0.5)
    assert len(inst.edges) == 10
    for i, j, r in inst.edges:
        assert i == j
        assert r == (2.0 ** 19 if j == 10 else 1.0)
    with pytest.raises(ValueError):
        gen_adversarial(m=1, C=4.0)


def test_session_youtube_shape_and_alphas():
    inst = gen_session_youtube(m=30, seed=6, num_categories=4, advertisers=3)
    assert inst.num_ads == 12 and inst.num_slots == 30
    assert len(inst.edges) == 12 * 30
    assert all(r >= 0.0 for _, _, r in inst.edges)


def _youtube(**params):
    return generate(GeneratorConfig("session_youtube", m=12, seed=4,
                                    params=dict(num_categories=3,
                                                advertisers=2, **params)))


def _slot_categories(inst, advertisers):
    """Each slot's item category, read off the one category of ads that
    take the slot's largest reward (alpha_match > alpha_mismatch)."""
    cats = []
    for j in range(1, inst.num_slots + 1):
        ads, rewards = inst.row(j)
        (k,) = {(i - 1) // advertisers for i, r in zip(ads, rewards)
                if r == max(rewards)}
        cats.append(k)
    return cats


def test_session_youtube_takes_category_stats_and_item_categories():
    stats = [(100.0, 0.0), (250.0, 0.0), (400.0, 0.0)]
    items = [2, 0, 0, 1, 2, 2, 1, 0, 0, 0, 1, 2]
    inst = _youtube(category_stats=stats, item_categories=items,
                    alpha_match=0.8, alpha_mismatch=0.01)
    # sigma 0: each reward is exactly alpha * mu of the slot's category
    cats = _slot_categories(inst, 2)
    for j, k in enumerate(cats, 1):
        mu = stats[k][0]
        for i, r in zip(*inst.row(j)):
            assert r == (0.8 * mu if (i - 1) // 2 == k else 0.01 * mu)
    # the given categories, in the browse order the seed draws first
    order = _browse_permutation(np.asarray(items), 0.5,
                                np.random.default_rng(4))
    assert cats == [items[v] for v in order]
    assert sorted(cats) == sorted(items)
    # p_same 1 browses each category to its end before moving on
    runs = _slot_categories(_youtube(category_stats=stats,
                                     item_categories=items, p_same=1.0), 2)
    assert [k for k, prev in zip(runs, [None] + runs) if k != prev] \
        == list(dict.fromkeys(runs))


def test_session_youtube_refuses_stats_of_the_wrong_length():
    for stats in ([(100.0, 0.0)] * 2, [(100.0, 0.0)] * 4):
        with pytest.raises(ValueError, match="one \\(mu, sigma\\) pair "
                           "per category"):
            _youtube(category_stats=stats)


def test_session_blocks_default_shape():
    inst = gen_session_blocks()
    assert inst.num_ads == 14400
    assert inst.num_slots == 1440
    assert len(inst.edges) == 144000


def test_session_blocks_reward_range():
    inst = gen_session_blocks(m=50, blocks=4, categories=5, slots_per_block=3,
                              seed=9)
    assert inst.num_ads == 20 and len(inst.edges) == 4 * 5 * 3
    assert all(8.4 <= r <= 1500.0 for _, _, r in inst.edges)


def test_unknown_scheme_raises():
    with pytest.raises(ValueError):
        generate(GeneratorConfig(scheme="nope"))


def test_every_scheme_refuses_a_parameter_its_generator_does_not_take():
    for scheme in SCHEMES:
        for key in ("foo", "q", "n", "m", "seed", "intger"):
            config = GeneratorConfig(scheme=scheme, m=20, params={key: 1})
            with pytest.raises(ValueError, match="'%s'" % key):
                generate(config)
    for scheme in ("heavy_top", "heavy_bottom"):  # bound by the scheme table
        with pytest.raises(ValueError, match="'direction'"):
            generate(GeneratorConfig(scheme=scheme, m=20,
                                     params={"direction": "top"}))


def test_each_parameter_reaches_its_generator():
    config = GeneratorConfig("symmetric", n=3, m=4, seed=5,
                             params={"integer": True})
    assert generate(config).edges \
        == gen_symmetric(3, 4, q=0.1, seed=5, integer=True).edges
    assert generate(GeneratorConfig("adversarial", m=4, q=0.3,
                                    params={"C": 9.0})).edges \
        == gen_adversarial(4, 9.0, q=0.3).edges
    assert generate(GeneratorConfig("adversarial", m=4)).edges \
        == gen_adversarial(4, 2.0 ** 7, q=0.1).edges
    # an explicit C needs no default, which would overflow at m = 600
    assert generate(GeneratorConfig("adversarial", m=600,
                                    params={"C": 7.0})).edges[-1] \
        == (600, 600, 7.0)
    config = GeneratorConfig("session_blocks", m=30, seed=2,
                             params={"blocks": 3, "categories": 4,
                                     "slots_per_block": 2})
    assert generate(config).edges == gen_session_blocks(
        m=30, seed=2, blocks=3, categories=4, slots_per_block=2).edges
    # an integral float size is the integer it equals
    assert generate(GeneratorConfig("session_blocks", m=40.0,
                                    params={"blocks": 2})).num_slots == 40
    assert SIZED_SCHEMES == ("symmetric", "heavy_top", "heavy_bottom",
                             "finely_targeted")
    for config in (GeneratorConfig("adversarial"),
                   GeneratorConfig("adversarial", m=600)):
        with pytest.raises(ValueError, match="adversarial"):
            generate(config)


@pytest.mark.parametrize("config, field", [
    (GeneratorConfig("symmetric", n=5.5, m=4), "n"),
    (GeneratorConfig("symmetric", n=5, m=4, seed=1.5), "seed"),
    (GeneratorConfig("session_blocks", m=40.5), "m"),
    (GeneratorConfig("symmetric", n=-1, m=4), "n"),
    (GeneratorConfig("symmetric", n="5", m=4), "n"),
])
def test_generate_refuses_a_size_or_seed_that_is_not_a_count(config, field):
    with pytest.raises(ValueError, match="^%s must be a non-negative integer"
                       % field):
        generate(config)


def _set_browse_permutation(categories, p_same, rng):
    """The O(m^2) set-based browse order that ``_browse_permutation``
    replaces, kept as its oracle."""
    m = len(categories)
    unseen = set(range(m))
    order = []
    cur = int(rng.integers(m))
    order.append(cur)
    unseen.remove(cur)
    while unseen:
        same = [v for v in unseen if categories[v] == categories[cur]]
        other = [v for v in unseen if categories[v] != categories[cur]]
        if rng.random() < p_same:
            pool = same or other
        else:
            pool = other or same
        cur = pool[int(rng.integers(len(pool)))]
        order.append(cur)
        unseen.remove(cur)
    return order


def test_browse_permutation_matches_the_set_oracle():
    for m in (1, 2, 30, 200, 500):
        for seed in range(3):
            for p_same in (0.0, 0.5, 1.0):
                categories = np.random.default_rng(seed + 100).integers(
                    0, 8, size=m)
                assert _browse_permutation(
                    categories, p_same, np.random.default_rng(seed)) \
                    == _set_browse_permutation(
                        list(categories), p_same, np.random.default_rng(seed))


def test_browse_permutation_outpaces_the_set_oracle():
    # the set oracle rebuilds both pools in Python at every step; the mask
    # version was 8x faster at m = 2000 on a 2-vCPU VM
    categories = np.random.default_rng(1).integers(0, 8, size=2000)

    def best_of_3(permutation, cats):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            permutation(cats, 0.5, np.random.default_rng(0))
            times.append(time.perf_counter() - t0)
        return min(times)

    assert 2 * best_of_3(_browse_permutation, categories) \
        < best_of_3(_set_browse_permutation, list(categories))


def _tuple_complete(n, m, q, rewards):
    """The ``_complete`` that fed one (ad, slot, reward) tuple per edge
    through the edge loop, kept as the oracle of the row form."""
    edges = ((i, j, r) for i, row in enumerate(rewards.tolist(), 1)
             for j, r in enumerate(row, 1))
    return ProblemInstance(num_ads=n, num_slots=m, quit_prob=q, edges=edges)


def _tuple_session_blocks(m=1440, q=0.1, seed=1, blocks=144, categories=100,
                          slots_per_block=10, reward_table=None):
    """The tuple-building ``gen_session_blocks``, kept as its oracle."""
    rng = np.random.default_rng(seed)
    if reward_table is None:
        reward_table = rng.uniform(8.4, 1500.0, size=(categories, m))
    reward_table = np.asarray(reward_table, dtype=float)
    if reward_table.shape != (categories, m):
        raise ValueError("reward_table must have shape (categories, m)")
    edges = []
    for h in range(blocks):
        slots = np.sort(rng.choice(m, size=slots_per_block, replace=False))
        js = (slots + 1).tolist()
        for ad, rewards in enumerate(reward_table[:, slots].tolist(),
                                     h * categories + 1):
            edges.extend((ad, j, r) for j, r in zip(js, rewards))
    return ProblemInstance(blocks * categories, m, q, edges)


def _oracle_generate(config):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generators, "_complete", _tuple_complete)
        patch.setitem(SCHEMES, "session_blocks", _tuple_session_blocks)
        return generate(config)


# scheme -> (n, m, params) at the default, tiny and degenerate sizes
# (finely_targeted draws a target slot per ad, so it needs m > 0 for n > 0)
ORACLE_SIZES = {
    "symmetric": [(None, None, {}), (4, 7, {"integer": True}), (0, 7, {}),
                  (4, 0, {}), (0, 0, {})],
    "heavy_top": [(None, None, {}), (4, 7, {}), (0, 7, {}), (4, 0, {})],
    "heavy_bottom": [(None, None, {}), (4, 7, {}), (0, 7, {}), (4, 0, {})],
    "finely_targeted": [(None, None, {}), (4, 7, {}), (0, 7, {})],
    "adversarial": [(None, 20, {}), (None, 3, {})],
    "session_youtube": [(None, None, {}),
                        (None, 9, {"num_categories": 2, "advertisers": 2}),
                        (None, 9, {"advertisers": 0})],
    "session_blocks": [(None, None, {}),
                       (None, 12, {"blocks": 3, "categories": 4,
                                   "slots_per_block": 2}),
                       (None, 12, {"blocks": 0}),
                       (None, 0, {"blocks": 0}),
                       (None, 12, {"categories": 0, "blocks": 3})],
}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_generators_build_what_the_tuple_oracles_build(scheme, tmp_path):
    assert set(ORACLE_SIZES) == set(SCHEMES)
    for seed in (1, 2, 3):
        for n, m, params in ORACLE_SIZES[scheme]:
            config = GeneratorConfig(scheme, n=n, m=m, seed=seed,
                                     params=params)
            got, want = generate(config), _oracle_generate(config)
            files = []
            for inst in (got, want):
                files.append(tmp_path / ("%d.txt" % len(files)))
                write_instance(inst, files[-1])
            assert files[0].read_bytes() == files[1].read_bytes(), config
            assert got.edges == want.edges
            for j in range(got.num_slots + 2):
                (ads, rewards), (want_ads, want_rewards) = got.row(j), \
                    want.row(j)
                assert list(ads) == list(want_ads)
                assert bytes(rewards) == bytes(want_rewards)


def test_row_form_outpaces_the_tuple_oracle():
    # the tuple oracle files 100 000 edges one by one; the row form was 4-6x
    # faster on a 2-vCPU VM
    def best_of_3(build):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            build()
            times.append(time.perf_counter() - t0)
        return min(times)

    config = GeneratorConfig("symmetric", n=100, m=1000)
    assert 2 * best_of_3(lambda: generate(config)) \
        < best_of_3(lambda: _oracle_generate(config))


def test_session_youtube_at_m_0_builds_an_instance_with_no_slots():
    inst = generate(GeneratorConfig("session_youtube", m=0))
    assert (inst.num_ads, inst.num_slots, inst.edges) == (120, 0, ())
    inst = generate(GeneratorConfig("session_youtube", m=0,
                                    params={"num_categories": 0}))
    assert (inst.num_ads, inst.num_slots, inst.edges) == (0, 0, ())


@pytest.mark.parametrize("params, name", [
    ({"item_categories": [0, 1, 5]}, "item_categories"),     # out of range
    ({"item_categories": [0, -1, 1]}, "item_categories"),
    ({"item_categories": [0, 1]}, "item_categories"),        # not m of them
    ({"item_categories": [0, 1, 1, 0]}, "item_categories"),
    ({"item_categories": [0, 1.5, 1]}, "item_categories"),   # no integer
    ({"item_categories": [[0], [1], [1]]}, "item_categories"),
    ({"num_categories": 0}, "num_categories"),
    ({"num_categories": 0, "category_stats": []}, "num_categories"),
])
def test_session_youtube_refuses_categories_it_cannot_build_from(params, name):
    params = {"num_categories": 2, **params}
    with pytest.raises(ValueError, match=name):
        generate(GeneratorConfig("session_youtube", m=3, params=params))


def test_session_youtube_takes_integral_item_categories_of_any_type():
    def edges(items):
        return generate(GeneratorConfig("session_youtube", m=3, params={
            "num_categories": 2, "item_categories": items})).edges

    assert edges([0.0, 1.0, True]) == edges(np.array([0, 1, 1])) \
        == edges([0, 1, 1])


def test_session_blocks_refuses_more_slots_per_block_than_slots():
    for m, params in ((5, {}), (0, {}), (3, {"blocks": 1,
                                              "slots_per_block": 4})):
        with pytest.raises(ValueError, match="^slots_per_block .*m = %d" % m):
            generate(GeneratorConfig("session_blocks", m=m, params=params))
    inst = generate(GeneratorConfig("session_blocks", m=3, params={
        "blocks": 2, "categories": 2, "slots_per_block": 3}))
    assert len(inst.edges) == 2 * 2 * 3
    assert generate(GeneratorConfig("session_blocks", m=0, params={
        "blocks": 0})).num_slots == 0


@pytest.mark.parametrize("shape", [(2, 5), (4, 2), (2,)])
def test_session_blocks_refuses_a_reward_table_of_the_wrong_shape(shape):
    params = {"blocks": 1, "categories": 2, "slots_per_block": 2,
              "reward_table": np.ones(shape)}
    with pytest.raises(ValueError, match="^reward_table must have shape"):
        generate(GeneratorConfig("session_blocks", m=4, params=params))
