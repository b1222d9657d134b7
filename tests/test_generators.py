"""Instance generators: shapes, ranges, determinism."""

import numpy as np
import pytest

from feedalloc.generators import (SCHEMES, SIZED_SCHEMES, GeneratorConfig,
                                  gen_adversarial, gen_asymmetric,
                                  gen_finely_targeted, gen_session_blocks,
                                  gen_session_youtube, gen_symmetric, generate)


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
    assert SIZED_SCHEMES == ("symmetric", "heavy_top", "heavy_bottom",
                             "finely_targeted")
    for config in (GeneratorConfig("adversarial"),
                   GeneratorConfig("adversarial", m=600)):
        with pytest.raises(ValueError, match="adversarial"):
            generate(config)
