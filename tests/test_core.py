"""Objective evaluation, suffix identities, validation, and file formats."""

import dataclasses
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (allocation_file_bytes, make_rng, random_matching,
                      sparse_instance)
from feedalloc.cli import SOLVERS
from feedalloc.core import (Allocation, FormatError, InvalidAllocationError,
                            InvalidInstanceError, Mode, ProblemInstance,
                            decompose, entry_suffixes, expected_reward,
                            read_allocation, read_instance, suffix_reward,
                            suffix_value, suffix_vector, validate_allocation,
                            write_allocation, write_instance)
from suffix_tree import SuffixTree


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


def test_construction_refuses_invalid_instance():
    with pytest.raises(InvalidInstanceError) as err:
        _inst(2, 2, 1.5, [(1, 1, 1.0), (1, 1, 2.0), (3, 1, 1.0),
                          (1, 5, 1.0), (2, 2, -1.0)])
    message = str(err.value)
    for problem in ("quit_prob", "duplicate edge (1, 1)",
                    "edge (3, 1): ad index", "edge (1, 5): slot index",
                    "edge (2, 2): reward"):
        assert problem in message
    with pytest.raises(InvalidInstanceError, match="num_ads"):
        _inst(2.5, 2, 0.1, [])
    with pytest.raises(InvalidInstanceError,
                       match=r"edge \(1\.5, 1\): non-integer index"):
        _inst(2, 2, 0.1, [(1.5, 1, 1.0), (2, 2, 2.0)])
    # int() of these raises ValueError or OverflowError, not the model's error
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInstanceError, match="non-integer index"):
            _inst(2, 2, 0.1, [(bad, 1, 1.0)])
        with pytest.raises(InvalidInstanceError, match="non-integer index"):
            _inst(2, 2, 0.1, [(1, 1, 1.0), (2, bad, 2.0)])
    good = _inst(2, 2, 0.1, [(1, 1, 1.0), (2, 2, 2.0)])
    assert good.edges == ((1, 1, 1.0), (2, 2, 2.0))
    # integral index types are converted, not refused
    assert _inst(2, 2, 0.1, [(np.int64(1), 1.0, 1), (2.0, np.int32(2), 2.0)]
                 ).edges == good.edges


@pytest.mark.parametrize("n, m, q, edges", [
    (1, 1, 0.0, ((1, 1, 5.0), (1, 1, 0.5))),   # duplicate pair
    (2, 2, 0.1, ((3, 1, 5.0), (1, 1, -2.0))),  # ad 3 of 2; negative reward
    (2, 2, 0.1, ((1, 1, math.nan),)),
    (2, 2, 0.1, ((1, 1, math.inf),)),
    (2, 2, 1.0, ()),
    (-1, 2, 0.1, ()),
    (2, 2, 0.1, ((1.5, 1, 1.0), (2.9, 2, 2.0))),  # int() would truncate
    (2, 2, 0.1, (("1", 1, 1.0),)),            # int() would parse the text
    (2, 2, 0.1, ((1, 1, None),)),
    (2, 2, 0.1, ((1, 1, "x"),)),
    (2, 2, 0.1, ((1, 1),)),                   # two fields
    (2, 2, 0.1, ((1, 1, 1.0, 0),)),           # four fields
    (2, 2, 0.1, None),                        # no edge iterable at all
])
def test_invalid_instance_cannot_be_built(n, m, q, edges):
    with pytest.raises(InvalidInstanceError):
        ProblemInstance(n, m, q, edges)


def test_construction_names_each_malformed_field():
    with pytest.raises(InvalidInstanceError) as err:
        _inst(2, 2, 0.1, [("1", 1, 1.0), (1, None, 1.0), (1, 1, None),
                          (2, 2, "1.5"), (1, 2), (1, 2, 1.0, 0), None])
    message = str(err.value)
    for problem in ("edge ('1', 1): non-integer index",
                    "edge (1, None): non-integer index",
                    "edge (1, 1): reward None invalid",
                    "edge (2, 2): reward '1.5' invalid",
                    "edge (1, 2): not an (ad, slot, reward) triple",
                    "edge (1, 2, 1.0, 0): not an (ad, slot, reward) triple",
                    "edge None: not an (ad, slot, reward) triple"):
        assert problem in message
    for n, m, q in (("2", 2, 0.1), (2, None, 0.1), (2, 2, "0.1"),
                    (2, 2, None)):
        with pytest.raises(InvalidInstanceError):
            _inst(n, m, q, [(1, 1, 1.0)])


def test_sizes_and_q_are_kept_as_checked():
    # a size equal to its int() is stored as that int, and q as a float,
    # so every solver runs on float-sized input as on the int-sized one
    inst = ProblemInstance(2, 3.0, 0, ((1, 1, 2.0), (2, 3, 1.0)))
    assert (inst.num_ads, inst.num_slots, inst.quit_prob) == (2, 3, 0.0)
    assert [type(x) for x in (inst.num_ads, inst.num_slots, inst.quit_prob)] \
        == [int, int, float]
    rng = make_rng(61)
    for _ in range(30):
        ref = sparse_instance(rng)
        sized = ProblemInstance(float(ref.num_ads), float(ref.num_slots),
                                ref.quit_prob, ref.edges)
        for name in ("gb", "gb-mapping", "gbp", "global", "flowg"):
            assert SOLVERS[name](sized).allocation \
                == SOLVERS[name](ref).allocation, name


def test_allocation_refuses_non_integer_entries():
    for entry in ((1.9, 1), ("2", 1), (1, "1"), (math.nan, 1), (math.inf, 1),
                  (2, -math.inf), (None, 1), (1, 2, 3), (1,), 7):
        with pytest.raises(InvalidAllocationError,
                           match=r"entry .* not a pair of integers"):
            Allocation(entries=((3, 1), entry))
    assert Allocation(((2.0, 1),)).entries == ((2, 1),)
    alloc = Allocation(((np.int64(2), np.int32(1)), (1, np.uint8(2))))
    assert alloc.entries == ((1, 2), (2, 1))
    assert all(type(x) is int for entry in alloc.entries for x in entry)


def test_suffix_index_must_be_an_integer_in_range():
    inst = _inst(2, 3, 0.3, [(1, 1, 1.0), (2, 3, 2.0)])
    alloc = Allocation(entries=((1, 1), (3, 2)))
    for evaluate in (suffix_reward, decompose):
        for j in (1.5, "1", None, math.nan, math.inf, -1, 4):
            with pytest.raises(ValueError, match="suffix index"):
                evaluate(inst, alloc, j)
        assert evaluate(inst, alloc, 2.0) == evaluate(inst, alloc, 2)
        assert evaluate(inst, alloc, np.int64(2)) == evaluate(inst, alloc, 2)


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


def test_allocation_is_frozen():
    alloc = Allocation(entries=((1, 1),))
    with pytest.raises(dataclasses.FrozenInstanceError):
        alloc.entries = ((2, 1),)
    assert alloc.entries == ((1, 1),)


def test_allocation_check_follows_the_instance():
    # one allocation checked against A, then B (no edge for it), then A, then
    # C (the same edge with another reward): each instance gets its own answer
    a = _inst(1, 2, 0.5, [(1, 2, 8.0)])
    b = _inst(1, 2, 0.5, [(1, 1, 8.0)])
    c = _inst(1, 2, 0.5, [(1, 2, 4.0)])
    alloc = Allocation(entries=((2, 1),))
    assert expected_reward(a, alloc) == 2.0
    with pytest.raises(InvalidAllocationError,
                       match="invalid allocation: entry .* not an instance edge"):
        suffix_reward(b, alloc, 0)
    problems = validate_allocation(b, alloc)
    assert len(problems) == 1
    problems.append("edited by the caller")
    assert len(validate_allocation(b, alloc)) == 1
    assert validate_allocation(a, alloc) == []
    assert suffix_reward(a, alloc, 1) == 4.0
    assert expected_reward(c, alloc) == 1.0
    assert [t.tau for t in decompose(c, alloc, 0)] == [0.0, 4.0]


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


@settings(max_examples=60, deadline=None)
@given(allocation_file_bytes())
def test_read_allocation_returns_allocation_or_format_error(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "alloc.txt")
        with open(path, "wb") as fh:
            fh.write(content)
        try:
            alloc = read_allocation(path)
        except FormatError as exc:
            assert str(exc).startswith(path + ":")
            return
    assert all(type(j) is int and type(i) is int for j, i in alloc.entries)


def test_read_instance_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(ValueError):
        read_instance(path)


def test_candidates_are_sorted():
    inst = _inst(3, 3, 0.1, [(3, 1, 1.0), (1, 1, 1.0), (1, 3, 1.0)])
    assert inst.candidates(1) == [1, 3]
    assert inst.candidates(2) == []


def _has_problem(n, m, q, edges):
    """Whether the model forbids this input, checked naively."""
    if not (type(n) is int and n >= 0 and type(m) is int and m >= 0):
        return True
    if not 0.0 <= q < 1.0:
        return True
    if any(len(edge) != 3 or any(type(x) not in (int, float) for x in edge)
           for edge in edges):
        return True    # wrong arity, or a field that is not a number
    pairs = [(i, j) for i, j, _r in edges]
    if len(set(pairs)) < len(pairs):
        return True
    return any(not (1 <= i <= n and 1 <= j <= m) or i % 1 or j % 1
               or math.isnan(r) or math.isinf(r) or r < 0.0
               for i, j, r in edges)


FAULTS = (None, "duplicate", "ad", "slot", "reward", "q", "n", "index", "junk")


@st.composite
def _instance_inputs(draw, faults=FAULTS):
    """(n, m, q, edges): a valid input, or one with one of ``faults``
    injected."""
    n = draw(st.integers(0, 6))
    m = draw(st.integers(0, 6))
    q = draw(st.floats(0.0, 1.0, exclude_max=True))
    pairs = []
    if n and m:
        pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, m)),
                              unique=True, max_size=12))
    edges = [(i, j, draw(st.floats(0.0, 1e6))) for i, j in pairs]
    fault = draw(st.sampled_from(faults))
    if fault == "duplicate" and edges:
        i, j, _r = draw(st.sampled_from(edges))
        edges.insert(draw(st.integers(0, len(edges))),
                     (i, j, draw(st.floats(0.0, 1e6))))
    elif fault in ("ad", "slot"):
        outside = st.one_of(st.integers(-2, 0), st.integers(7, 9))
        inside = st.integers(1, 6)
        edges.append((draw(outside if fault == "ad" else inside),
                      draw(inside if fault == "ad" else outside), 1.0))
    elif fault == "reward" and edges:
        bad = draw(st.one_of(st.floats(max_value=-1e-300),
                             st.sampled_from((math.nan, math.inf,
                                              -math.inf))))
        p = draw(st.integers(0, len(edges) - 1))
        edges[p] = edges[p][:2] + (bad,)
    elif fault == "q":
        q = draw(st.one_of(st.floats(max_value=-1e-300), st.floats(1.0),
                           st.just(math.nan)))
    elif fault == "n":
        n = draw(st.floats(0.0, 9.0).filter(lambda x: x % 1 != 0))
    elif fault == "index" and edges:
        # a float index: refused unless integral and finite
        p = draw(st.integers(0, len(edges) - 1))
        shift = draw(st.sampled_from((0.0, 0.5, 0.99, math.nan, math.inf,
                                      -math.inf)))
        i, j, r = edges[p]
        edges[p] = ((i + shift, j, r) if draw(st.booleans())
                    else (i, j + shift, r))
    elif fault == "junk":
        # a field that no int() or float() equals: text, bytes or None
        edge = [draw(st.integers(1, 6)), draw(st.integers(1, 6)), 1.0]
        edge[draw(st.integers(0, 2))] = draw(st.sampled_from(
            ("1", "1.5", "x", "", b"1", None)))
        edges.insert(draw(st.integers(0, len(edges))), tuple(edge))
    elif fault == "arity":
        edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from(
            ((), (1,), (1, 1), (1, 1, 1.0, 0)))))
    return n, m, q, edges


@settings(max_examples=400, deadline=None)
@given(_instance_inputs())
def test_construction_refuses_exactly_the_invalid_inputs(args):
    n, m, q, edges = args
    if _has_problem(n, m, q, edges):
        with pytest.raises(InvalidInstanceError):
            ProblemInstance(n, m, q, tuple(edges))
        return
    inst = ProblemInstance(n, m, q, tuple(edges))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.txt")
        write_instance(inst, path)
        back = read_instance(path)
    assert (back.num_ads, back.num_slots, back.quit_prob) == (n, m, q)
    assert back.edges == inst.edges == tuple(edges)


@settings(max_examples=100, deadline=None)
@given(_instance_inputs(faults=("arity",)))
def test_construction_refuses_an_edge_of_another_arity(args):
    n, m, q, edges = args
    assert _has_problem(n, m, q, edges)
    with pytest.raises(InvalidInstanceError,
                       match=r"not an \(ad, slot, reward\) triple"):
        ProblemInstance(n, m, q, tuple(edges))


def _listed_problems(reward, entries, matching):
    """validate_allocation's messages, from a plain (ad, slot) -> reward
    dict."""
    problems, used, prev = [], set(), None
    for j, i in sorted(entries):
        if j == prev:
            problems.append("slot %d assigned more than once" % j)
        prev = j
        if matching and i in used:
            problems.append("ad %d used more than once in matching mode" % i)
        used.add(i)
        if (i, j) not in reward:
            problems.append("entry (slot %d, ad %d) is not an instance edge"
                            % (j, i))
    return problems


@settings(max_examples=300, deadline=None)
@given(_instance_inputs(), st.data())
def test_rows_hold_every_edge_of_a_shuffled_list(args, data):
    n, m, q, edges = args
    edges = data.draw(st.permutations(edges))
    if _has_problem(n, m, q, edges):
        with pytest.raises(InvalidInstanceError) as err:
            ProblemInstance(n, m, q, tuple(edges))
        pairs = [(i, j) for i, j, _r in edges]
        for k, pair in enumerate(pairs):
            if pair in pairs[:k]:
                assert "duplicate edge (%d, %d)" % pair in str(err.value)
        return
    inst = ProblemInstance(n, m, q, tuple(edges))
    reward = {(i, j): r for i, j, r in edges}
    for j in range(m + 2):
        ads, rewards = inst.row(j)
        assert list(ads) == inst.candidates(j) \
            == sorted(i for i, slot in reward if slot == j)
        assert list(rewards) == [reward[(i, j)] for i in ads]
        for i in range(n + 2):
            if (i, j) in reward:
                assert inst.reward(i, j) == reward[(i, j)]
            else:
                with pytest.raises(KeyError):
                    inst.reward(i, j)
    entries = data.draw(st.lists(st.tuples(st.integers(1, m + 1),
                                           st.integers(1, n + 1)),
                                 max_size=6))
    for mode in Mode:
        problems = validate_allocation(inst, Allocation(entries, mode))
        assert problems == _listed_problems(reward, entries,
                                            mode is Mode.MATCHING)


def test_validate_allocation_messages():
    inst = _inst(2, 3, 0.1, [(2, 3, 1.0), (1, 2, 1.0), (1, 1, 1.0)])
    alloc = Allocation(((1, 1), (1, 2), (2, 1), (3, 1)), Mode.MATCHING)
    assert validate_allocation(inst, alloc) == [
        "slot 1 assigned more than once",
        "entry (slot 1, ad 2) is not an instance edge",
        "ad 1 used more than once in matching mode",
        "ad 1 used more than once in matching mode",
        "entry (slot 3, ad 1) is not an instance edge"]


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
