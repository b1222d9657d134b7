"""Objective evaluation, suffix identities, validation, and file formats."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng, random_matching, sparse_instance
from feedalloc.core import (Allocation, InvalidAllocationError, Mode,
                            ProblemInstance, SuffixTree, decompose,
                            entry_suffixes, expected_reward, read_allocation,
                            read_instance, suffix_reward, suffix_value,
                            suffix_vector, validate_allocation,
                            validate_instance, write_allocation,
                            write_instance)


def _inst(n, m, q, edges):
    return ProblemInstance(num_ads=n, num_slots=m, quit_prob=q,
                           edges=tuple(edges))


def test_expected_reward_hand_computed():
    # ads at slots 2 and 4: the slot-4 ad is pushed one view further down
    inst = _inst(2, 4, 0.5, [(1, 2, 8.0), (2, 4, 16.0)])
    alloc = Allocation(entries=((2, 1), (4, 2)), mode=Mode.MATCHING)
    # 8 * 0.5^2 + 16 * 0.5^(4+1)
    assert expected_reward(inst, alloc) == pytest.approx(2.0 + 0.5)


def test_empty_allocation_is_zero():
    inst = _inst(1, 3, 0.2, [(1, 1, 5.0)])
    assert expected_reward(inst, Allocation(entries=())) == 0.0


def test_q_zero_is_plain_sum():
    inst = _inst(3, 5, 0.0, [(1, 1, 1.5), (2, 3, 2.5), (3, 5, 3.0)])
    alloc = Allocation(entries=((1, 1), (3, 2), (5, 3)))
    assert expected_reward(inst, alloc) == pytest.approx(7.0)


def test_suffix_reward_boundary_values():
    rng = make_rng(11)
    for _ in range(50):
        inst = sparse_instance(rng)
        alloc = random_matching(inst, rng)
        assert suffix_reward(inst, alloc, 0) == pytest.approx(
            expected_reward(inst, alloc))
        assert suffix_reward(inst, alloc, inst.num_slots) == 0.0


def test_suffix_vector_matches_direct_evaluation():
    rng = make_rng(12)
    for _ in range(100):
        inst = sparse_instance(rng)
        alloc = random_matching(inst, rng)
        pairs = [(j, inst.reward(i, j)) for j, i in alloc.entries]
        vec = suffix_vector(pairs, inst.quit_prob, inst.num_slots)
        for j in range(inst.num_slots + 1):
            direct = suffix_value(pairs, inst.quit_prob, base=j)
            assert vec[j] == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_decompose_reconstructs_every_suffix():
    rng = make_rng(13)
    for _ in range(100):
        inst = sparse_instance(rng)
        alloc = random_matching(inst, rng)
        for j in range(inst.num_slots + 1):
            direct = suffix_reward(inst, alloc, j)
            recon = sum(t.discount * t.tau for t in decompose(inst, alloc, j))
            assert recon == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_decompose_marks_occupied_slots():
    inst = _inst(2, 3, 0.3, [(1, 1, 1.0), (2, 3, 2.0)])
    alloc = Allocation(entries=((1, 1), (3, 2)))
    terms = decompose(inst, alloc, 0)
    assert [t.occupied for t in terms] == [True, False, True]
    assert terms[1].tau == 0.0


def test_validate_instance_flags_problems():
    bad = _inst(2, 2, 1.5, [(1, 1, 1.0), (1, 1, 2.0), (3, 1, 1.0),
                            (1, 5, 1.0), (2, 2, -1.0)])
    problems = validate_instance(bad)
    assert any("quit_prob" in p for p in problems)
    assert any("duplicate" in p for p in problems)
    assert any("ad index" in p for p in problems)
    assert any("slot index" in p for p in problems)
    assert any("reward" in p for p in problems)
    good = _inst(2, 2, 0.1, [(1, 1, 1.0), (2, 2, 2.0)])
    assert validate_instance(good) == []


def test_validate_allocation_modes():
    inst = _inst(2, 3, 0.1, [(1, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    reuse = ((1, 1), (2, 1))
    assert validate_allocation(inst, Allocation(reuse, Mode.MAPPING)) == []
    problems = validate_allocation(inst, Allocation(reuse, Mode.MATCHING))
    assert any("more than once" in p for p in problems)
    off_edge = Allocation(((3, 1),), Mode.MATCHING)
    assert any("not an instance edge" in p
               for p in validate_allocation(inst, off_edge))
    with pytest.raises(InvalidAllocationError):
        expected_reward(inst, off_edge)


def test_allocation_entries_are_slot_sorted():
    alloc = Allocation(entries=((3, 1), (1, 2)))
    assert alloc.entries == ((1, 2), (3, 1))
    assert alloc.slots() == [1, 3]
    assert alloc.ads() == [2, 1]


def test_instance_roundtrip(tmp_path):
    rng = make_rng(14)
    for idx in range(20):
        inst = sparse_instance(rng)
        path = tmp_path / ("inst%d.txt" % idx)
        write_instance(inst, path)
        back = read_instance(path)
        assert back.num_ads == inst.num_ads
        assert back.num_slots == inst.num_slots
        assert back.quit_prob == inst.quit_prob
        assert back.edges == inst.edges


def test_allocation_roundtrip(tmp_path):
    rng = make_rng(15)
    inst = sparse_instance(rng)
    alloc = random_matching(inst, rng)
    path = tmp_path / "alloc.txt"
    write_allocation(alloc, path)
    assert read_allocation(path).entries == alloc.entries


def test_read_instance_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(ValueError):
        read_instance(path)


def test_candidates_and_slots_of_are_sorted():
    inst = _inst(3, 3, 0.1, [(3, 1, 1.0), (1, 1, 1.0), (1, 3, 1.0)])
    assert inst.candidates(1) == [1, 3]
    assert inst.candidates(2) == []
    assert inst.slots_of(1) == [1, 3]
    assert inst.has_edge(3, 1) and not inst.has_edge(3, 3)


@st.composite
def _tree_runs(draw):
    """(m, q, toggles, bases): each toggle occupies a free slot with its
    reward or frees an occupied one; slots cluster at both ends of 1..m."""
    m = draw(st.one_of(st.integers(1, 40), st.integers(9_000, 10_000)))
    q = draw(st.sampled_from((0.0, 0.01, 0.1, 0.3, 0.6, 0.9)))
    slot = st.one_of(st.integers(1, min(m, 40)),
                     st.integers(max(1, m - 40), m), st.integers(1, m))
    toggles = draw(st.lists(st.tuples(slot, st.floats(0.0, 100.0)),
                            max_size=80))
    base = st.one_of(st.integers(0, min(m, 40)), st.integers(max(0, m - 40), m),
                     st.integers(0, m))
    bases = draw(st.lists(base, min_size=len(toggles) + 1,
                          max_size=len(toggles) + 1))
    return m, q, toggles, bases


@settings(max_examples=150, deadline=None)
@given(_tree_runs())
def test_suffix_tree_matches_direct_fold(run):
    m, q, toggles, bases = run
    tree = SuffixTree(m, q)
    occupied = {}

    def close_to_fold(value, pairs, base):
        # below 1e-300 the direct fold itself works in subnormal numbers
        return value == pytest.approx(suffix_value(pairs, q, base),
                                      rel=1e-12, abs=1e-300)

    def check(base):
        count, value = tree.suffix(base)
        pairs = sorted(occupied.items())
        assert count == sum(1 for slot in occupied if slot > base)
        assert close_to_fold(value, pairs, base)
        for (slot, _r), f in zip(pairs, entry_suffixes(pairs, q)):
            assert close_to_fold(f, pairs, slot)
        if m <= 40:
            for j, f in enumerate(suffix_vector(pairs, q, m)):
                assert close_to_fold(f, pairs, j)

    check(bases[0])
    for (slot, reward), base in zip(toggles, bases[1:]):
        if slot in occupied:
            del occupied[slot]
            tree.remove(slot)
        else:
            occupied[slot] = reward
            tree.insert(slot, reward)
        check(base)
