"""Objective evaluation, suffix identities, validation, and file formats."""

import dataclasses
import gc
import itertools
import math
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (allocation_file_bytes, make_rng, random_matching,
                      sparse_instance)
from feedalloc import core
from feedalloc.algorithms import backwards_greedy
from feedalloc.cli import SOLVERS
from feedalloc.core import (Allocation, DecompositionTerm, FormatError,
                            InvalidAllocationError, InvalidInstanceError, Mode,
                            ProblemInstance, checked_pairs, decompose,
                            entry_suffixes, expected_reward, read_allocation,
                            read_instance, suffix_reward, suffix_value,
                            validate_allocation, write_allocation,
                            write_instance)
from feedalloc.generators import GeneratorConfig, gen_symmetric, generate
from listed_instance import ListedInstance
from suffix_tree import SuffixTree
from tau_dict_decompose import tau_dict_decompose


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


def _term_bits(terms):
    return [(t.slot, t.occupied, t.tau, t.discount) for t in terms]


def _assert_tail_reads_match_full_pass(inst, alloc):
    """Every j in 0..m: ``decompose`` gives the tau-dict oracle's terms and
    ``suffix_reward`` the fold over all pairs, both exactly."""
    pairs, q = checked_pairs(inst, alloc), inst.quit_prob
    for j in range(inst.num_slots + 1):
        assert (_term_bits(decompose(inst, alloc, j))
                == _term_bits(tau_dict_decompose(inst, alloc, j)))
        assert suffix_reward(inst, alloc, j) == suffix_value(pairs, q, j)
    assert decompose(inst, alloc, inst.num_slots) == []


def _random_mapping(inst, rng):
    """A random mapping-mode allocation: some slots get one of their ads."""
    entries = [(j, rng.choice(ads)) for j, (ads, _r) in inst.rows()
               if rng.random() < 0.7]
    return Allocation(entries=tuple(entries), mode=Mode.MAPPING)


@pytest.mark.parametrize("q", [0.0, 0.1, 0.9])
def test_decompose_reads_the_tail_as_the_full_pass_does(q):
    rng = make_rng(29)
    at_last_slot = 0
    for size in [(5, 6)] * 60 + [(8, 40)] * 20:
        inst = sparse_instance(rng, *size, q_choices=(q,))
        for alloc in (random_matching(inst, rng), _random_mapping(inst, rng),
                      Allocation(entries=())):
            _assert_tail_reads_match_full_pass(inst, alloc)
            at_last_slot += inst.num_slots in alloc.slots()
    assert at_last_slot >= 20
    inst = _inst(2, 4, q, [(1, 1, 1.0), (1, 4, 2.0), (2, 2, 3.0)])
    _assert_tail_reads_match_full_pass(
        inst, Allocation(((1, 1), (2, 2), (4, 1)), Mode.MAPPING))


def test_decomposition_term_keeps_its_fields_without_a_dict():
    names = [f.name for f in dataclasses.fields(DecompositionTerm)]
    assert names == ["slot", "occupied", "tau", "discount"]
    term = DecompositionTerm(3, False, 0.0, 0.5)
    term.occupied, term.tau = True, 1.5
    assert term == DecompositionTerm(slot=3, occupied=True, tau=1.5,
                                     discount=0.5)
    assert repr(term) == ("DecompositionTerm(slot=3, occupied=True, tau=1.5, "
                          "discount=0.5)")
    assert dataclasses.replace(term, tau=2.0) == DecompositionTerm(3, True,
                                                                   2.0, 0.5)
    assert dataclasses.asdict(term) == {"slot": 3, "occupied": True,
                                        "tau": 1.5, "discount": 0.5}
    assert not hasattr(term, "__dict__")
    with pytest.raises(AttributeError):
        term.weight = 1.0


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


def test_mode_is_read_through_its_value():
    inst = _inst(2, 3, 0.1, [(1, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    reuse = ((1, 1), (2, 1))
    for mode in Mode:
        alloc = Allocation(reuse, mode.value)
        assert alloc.mode is mode
        assert alloc == Allocation(reuse, mode)
        assert validate_allocation(inst, alloc) \
            == validate_allocation(inst, Allocation(reuse, mode))
    assert validate_allocation(inst, Allocation(reuse, "matching")) \
        == ["ad 1 used more than once in matching mode"]
    # three ads over 30 slots: only mapping mode fills more than 3 slots
    sym = gen_symmetric(3, 30, seed=1)
    for mode, name in ((Mode.MATCHING, "gb"), (Mode.MAPPING, "gb-mapping")):
        report = backwards_greedy(sym, mode=mode.value)
        assert report.algorithm == name
        assert report.allocation.mode is mode
        assert report == dataclasses.replace(
            backwards_greedy(sym, mode=mode), wall_time=report.wall_time)
    ads = backwards_greedy(sym, mode="matching").allocation.ads()
    assert len(set(ads)) == len(ads) <= 3
    for mode in ("MATCHING", "Mapping", "", None, 1, True):
        with pytest.raises(ValueError, match=re.escape(repr(mode))):
            Allocation(reuse, mode)
        with pytest.raises(ValueError, match=re.escape(repr(mode))):
            backwards_greedy(sym, mode=mode)


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


def test_a_malformed_line_after_an_invalid_edge_names_its_line(tmp_path):
    # the edges stream into the edge loop, which reads on past ad 5
    path = tmp_path / "bad.txt"
    path.write_text("2 2 0.1\n5 1 1.0\n1 x 1.0\n")
    with pytest.raises(FormatError) as err:
        read_instance(path)
    assert str(err.value).startswith("%s:3: " % path)


def test_candidates_are_sorted():
    inst = _inst(3, 3, 0.1, [(3, 1, 2.0), (1, 1, 1.0), (1, 3, 1.0)])
    ads, rewards = inst.row(1)
    assert list(ads) == [1, 3] and list(rewards) == [1.0, 2.0]
    assert inst.row(2) == ((), ())


def test_edges_come_from_the_rows_in_ad_slot_order():
    edges = [(i, j, float(i * 10 + j)) for i in range(1, 5)
             for j in range(1, 7) if (i + j) % 3]
    shuffled = list(edges)
    make_rng(7).shuffle(shuffled)
    built = [ProblemInstance(4, 6, 0.2, tuple(shuffled)),
             ProblemInstance(4, 6, 0.2, (edge for edge in shuffled)),
             ProblemInstance(4, 6, 0.2, iter(edges))]
    for inst in built:
        assert inst.edges == tuple(edges)
        assert all(inst.row(j) == built[0].row(j) for j in range(8))


def test_rows_walk_the_occupied_slots_in_increasing_order():
    edges = [(i, j, float(i * 10 + j)) for i in range(1, 5)
             for j in range(1, 9) if (i + j) % 3 and j != 5]
    shuffled = list(edges)
    make_rng(11).shuffle(shuffled)
    rows = {}
    for i, j, r in sorted(edges, key=lambda e: (e[1], e[0])):
        rows.setdefault(j, ([], []))
        rows[j][0].append(i)
        rows[j][1].append(r)
    backwards = dict(reversed(list(rows.items())))    # valid as given
    unsorted = {j: (ads[::-1], rewards[::-1])         # through the edge loop
                for j, (ads, rewards) in backwards.items()}
    built = [ProblemInstance(4, 9, 0.2, tuple(shuffled)),
             ProblemInstance(4, 9, 0.2, backwards),
             ProblemInstance(4, 9, 0.2, unsorted),
             generate(GeneratorConfig("session_blocks"))]
    for inst in built:
        slots = [j for j, _row in inst.rows()]
        assert slots == [j for j in range(1, inst.num_slots + 1)
                         if inst.row(j)[0]]
        assert all(row == inst.row(j) for j, row in inst.rows())
    assert [j for j, _row in built[0].rows()] == [1, 2, 3, 4, 6, 7, 8]
    assert len(built[3].rows()) < built[3].num_slots    # empty slots


def test_a_built_instance_keeps_only_its_rows():
    # the rows of 100 000 edges; a tuple per edge alone would take ~12 MB
    gc.collect()
    tracemalloc.start()
    try:
        inst = gen_symmetric(100, 1000, seed=1)
        gc.collect()
        kept, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.num_slots == 1000 and kept < 4e6


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
    assert back.edges == inst.edges == tuple(sorted(edges))


@settings(max_examples=100, deadline=None)
@given(_instance_inputs(faults=("arity",)))
def test_construction_refuses_an_edge_of_another_arity(args):
    n, m, q, edges = args
    assert _has_problem(n, m, q, edges)
    with pytest.raises(InvalidInstanceError,
                       match=r"not an \(ad, slot, reward\) triple"):
        ProblemInstance(n, m, q, tuple(edges))


def _as_rows(edges, shape):
    """``edges`` as rows {slot: (ads, rewards)}, each sorted by ad where the
    ads compare, then bent by ``shape``: one row reversed ("unsorted"),
    short of a reward ("short") or with one too many ("long"), or every
    row's rewards as a numpy array ("array")."""
    rows = {}
    for i, j, r in edges:
        ads, rewards = rows.setdefault(j, ([], []))
        ads.append(i)
        rewards.append(r)
    for ads, rewards in rows.values():
        try:
            order = sorted(range(len(ads)), key=ads.__getitem__)
        except TypeError:    # text beside numbers: left as drawn
            continue
        ads[:] = [ads[k] for k in order]
        rewards[:] = [rewards[k] for k in order]
    if rows and shape in ("unsorted", "short", "long"):
        ads, rewards = next(iter(rows.values()))
        {"unsorted": ads.reverse, "short": rewards.pop,
         "long": lambda: rewards.append(1.0)}[shape]()
    if shape == "array":
        rows = {j: (ads, np.array(rewards))
                for j, (ads, rewards) in rows.items()}
    return rows


def _built(n, m, q, edges):
    """The sizes, every row and the edges of the instance, or its error."""
    try:
        inst = ProblemInstance(n, m, q, edges)
    except InvalidInstanceError as err:
        return str(err)
    rows = [(type(ads), type(rewards), list(ads), bytes(rewards))
            for ads, rewards in map(inst.row, range(inst.num_slots + 2))]
    return inst.num_ads, inst.num_slots, inst.quit_prob, rows, inst.edges


@settings(max_examples=400, deadline=None)
@given(_instance_inputs(), st.sampled_from((None, "unsorted", "short", "long",
                                            "array")))
def test_rows_build_what_their_triples_build(args, shape):
    n, m, q, edges = args
    rows = _as_rows(edges, shape)
    triples = [(i, j, r) for j, (ads, rewards) in rows.items()
               for i, r in itertools.zip_longest(ads, rewards)]
    built = _built(n, m, q, rows)
    assert built == _built(n, m, q, triples)
    if shape is None and not _has_problem(n, m, q, edges):
        assert built[3] == _built(n, m, q, tuple(edges))[3]


@pytest.mark.parametrize("rows, valid", [
    ({1: ([2, 1], [1.0, 2.0])}, True),                # unsorted
    ({1: ([1, 1], [1.0, 2.0])}, False),               # a repeated ad
    ({1: ([0, 1], [1.0, 2.0])}, False),               # ads out of range
    ({1: ([1, 3], [1.0, 2.0])}, False),
    ({1: ([1.5], [1.0])}, False),                     # a non-integer ad
    ({1: ([2.0], [1.0])}, True),
    ({0: ([1], [1.0])}, False),                       # slot 0 or m + 1
    ({3: ([1], [1.0])}, False),
    ({1.5: ([1], [1.0])}, False),                     # a non-int slot key
    ({"1": ([1], [1.0])}, False),
    ({1: ([1, 2], [1.0])}, False),                    # lengths that differ
    ({1: ([1], np.array([1.0, 2.0]))}, False),
    ({1: ([1], [math.nan])}, False),                  # a bad reward
    ({1: ([1], np.array([-1.0]))}, False),
    ({1: ([1, 2], np.array([1.0, math.inf]))}, False),
    ({1: ([1], [-math.inf])}, False),
    ({1: ([1, 2], [3, 4])}, True),                    # not float64 rewards
    ({1: ([1], np.array([0.1], dtype=np.float32))}, True),
    ({1: ([1], ["1.5"])}, False),
])
def test_rows_not_valid_as_given_build_as_their_triples(rows, valid):
    triples = [(i, j, r) for j, (ads, rewards) in rows.items()
               for i, r in itertools.zip_longest(ads, rewards)]
    built = _built(2, 2, 0.1, rows)
    assert built == _built(2, 2, 0.1, triples)
    assert isinstance(built, str) is not valid


def test_valid_rows_skip_the_edge_loop(monkeypatch):
    def no_triples(_rows):
        raise AssertionError("the rows went through the edge loop")
        yield
    monkeypatch.setattr(core, "_triples", no_triples)
    inst = ProblemInstance(3, 4, 0.1, {4: ([1, 3], np.array([2.0, 0.0])),
                                       2: ((2,), [5.0])})
    assert inst.edges == ((1, 4, 2.0), (2, 2, 5.0), (3, 4, 0.0))
    for rows in ({4: ([3, 1], [2.0, 0.0])}, {3: ([], [])}):
        with pytest.raises(AssertionError, match="edge loop"):
            ProblemInstance(3, 4, 0.1, rows)


def test_an_instance_keeps_no_row_it_was_given():
    ads, rewards, column = [1, 3], [2.0, 5.0], np.array([4.0, 6.0])
    inst = ProblemInstance(3, 2, 0.1, {1: (ads, rewards), 2: (ads, column)})
    ads[:] = [2, 2]
    rewards[0] = math.nan
    column[:] = -1.0
    assert inst.edges == ((1, 1, 2.0), (1, 2, 4.0), (3, 1, 5.0), (3, 2, 6.0))
    assert inst.row(1)[0] is not inst.row(2)[0]    # one list per slot


def test_a_row_that_is_no_pair_names_its_slot():
    for value in (5, None, ([1],), ([1], [1.0], [0]), (1, 1.0)):
        with pytest.raises(InvalidInstanceError) as err:
            ProblemInstance(2, 3, 0.1, {1: ([1], [1.0]), 2: value})
        assert str(err.value) == ("invalid instance: edge 2: not an (ad, "
                                  "slot, reward) triple")
    # a dict keyed by triples is read as its keys, as iterating it reads it
    edges = ((1, 1, 1.0), (2, 3, 0.5))
    assert ProblemInstance(2, 3, 0.1, dict.fromkeys(edges)).edges == edges


@pytest.mark.parametrize("edges", [
    [(np.array([1, 2]), 1, 1.0)],
    [(1, np.array([1, 2]), 1.0)],
    {1: ([np.array([1, 2])], [1.0])},
])
def test_an_array_index_is_a_non_integer_index(edges):
    # comparing NaN with an array has no truth value: a bare ValueError
    with pytest.raises(InvalidInstanceError, match=r"^invalid instance: "
                       r"edge \((array\(\[1, 2\]\), 1|1, array\(\[1, 2\]\))\): "
                       r"non-integer index$"):
        ProblemInstance(2, 2, 0.1, edges)


def test_sizes_of_2_53_or_more_are_refused():
    # every float64 index column (the matcher's) is exact below 2**53
    for n, m, name in ((2 ** 53, 2, "num_ads"), (2, 2 ** 53 + 2, "num_slots")):
        with pytest.raises(InvalidInstanceError, match="^invalid instance: "
                           "%s must be a non-negative integer below 2\\*\\*53$"
                           % name):
            ProblemInstance(n, m, 0.1, ())
    with pytest.raises(InvalidInstanceError, match="num_ads"):
        ProblemInstance(2 ** 53 + 2, 2, 0.1,
                        [(2 ** 53 + 1, 1, 1.0), (2 ** 53, 2, 1.0)])
    inst = ProblemInstance(2 ** 53 - 1, 2, 0.1,
                           [(2 ** 53 - 1, 1, 1.0), (2 ** 53 - 2, 2, 1.0)])
    assert SOLVERS["mwm"](inst).allocation.entries \
        == ((1, 2 ** 53 - 1), (2, 2 ** 53 - 2))


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
        assert list(ads) == sorted(i for i, slot in reward if slot == j)
        if not ads:
            assert (ads, rewards) == ((), ())
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

    check(bases[0])
    for (slot, reward), base in zip(toggles, bases[1:]):
        if slot in occupied:
            del occupied[slot]
            tree.remove(slot)
        else:
            occupied[slot] = reward
            tree.insert(slot, reward)
        check(base)


def _built_by(build, n, m, q, edges):
    """``build``'s sizes, rows (types, ads, reward bytes) and edges, or the
    sorted problems it refuses the input with."""
    try:
        inst = build(n, m, q, edges)
    except InvalidInstanceError as err:
        return sorted(str(err).split("invalid instance: ", 1)[1].split("; "))
    rows = [(type(ads), type(rewards), list(ads), bytes(rewards))
            for ads, rewards in map(inst.row, range(inst.num_slots + 2))]
    return inst.num_ads, inst.num_slots, inst.quit_prob, rows, inst.edges


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.tuples(_instance_inputs(faults=FAULTS + ("arity",)), st.just("triples")),
    st.tuples(_instance_inputs(), st.sampled_from((None, "unsorted", "short",
                                                   "long", "array")))))
def test_construction_builds_what_the_listed_construction_builds(case):
    (n, m, q, edges), shape = case
    given = tuple(edges) if shape == "triples" else _as_rows(edges, shape)
    built = _built_by(ProblemInstance, n, m, q, given)
    assert built == _built_by(ListedInstance, n, m, q, given)


def test_a_repeated_pair_is_named_where_it_is_met(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("3 3 0.1\n1 1 1.0\n2 9 1.0\n1 1 2.0\n3 2 -1\n")
    with pytest.raises(InvalidInstanceError) as err:
        read_instance(path)
    assert str(err.value) == (
        "%s: invalid instance: edge (2, 9): slot index out of range; "
        "duplicate edge (1, 1); edge (3, 2): reward -1.0 invalid" % path)
    # each repeat is named, in rows as in triples
    for edges in ([(1, 1, 1.0), (1, 1, 2.0), (0, 1, 1.0), (1, 1, 3.0)],
                  {1: ([1, 1, 0, 1], [1.0, 2.0, 1.0, 3.0])}):
        with pytest.raises(InvalidInstanceError) as err:
            ProblemInstance(1, 1, 0.1, edges)
        assert str(err.value) == (
            "invalid instance: duplicate edge (1, 1); edge (0, 1): ad index "
            "out of range; duplicate edge (1, 1)")
