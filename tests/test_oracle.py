"""Brute-force solvers, guards, and the Monte-Carlo session simulator."""

import math
import random

import numpy as np
import pytest

from conftest import make_rng, random_matching, sparse_instance
from feedalloc.core import (Allocation, InvalidAllocationError, Mode,
                            ProblemInstance, expected_reward)
from feedalloc.oracle import (OracleGuardError, brute_force_mapping,
                              brute_force_matching, sample_session,
                              simulate_sessions)


def _inst(n, m, q, edges):
    return ProblemInstance(num_ads=n, num_slots=m, quit_prob=q,
                           edges=tuple(edges))


def test_matching_oracle_dominates_random_matchings():
    rng = make_rng(51)
    for _ in range(50):
        inst = sparse_instance(rng, max_edges=16)
        _alloc, opt = brute_force_matching(inst)
        for _ in range(20):
            candidate = random_matching(inst, rng)
            assert opt >= expected_reward(inst, candidate) - 1e-12


def test_matching_oracle_returns_valid_allocation():
    rng = make_rng(52)
    for _ in range(30):
        inst = sparse_instance(rng, max_edges=16)
        alloc, opt = brute_force_matching(inst)
        assert expected_reward(inst, alloc) == pytest.approx(opt, rel=1e-12)


def test_mapping_oracle_dominates_matching_oracle():
    rng = make_rng(53)
    for _ in range(50):
        inst = sparse_instance(rng, max_edges=16)
        _a1, opt_matching = brute_force_matching(inst)
        _a2, opt_mapping = brute_force_mapping(inst)
        assert opt_mapping >= opt_matching - 1e-12


def test_mapping_oracle_handles_reuse():
    # a single ad worth placing at both slots when attention allows
    inst = _inst(1, 2, 0.0, [(1, 1, 5.0), (1, 2, 5.0)])
    alloc, opt = brute_force_mapping(inst)
    assert opt == pytest.approx(10.0)
    assert len(alloc) == 2


def test_guards_reject_large_instances():
    big_edges = [(i, j, 1.0) for i in range(1, 10) for j in range(1, 10)]
    big = _inst(9, 9, 0.1, big_edges)
    with pytest.raises(OracleGuardError):
        brute_force_matching(big)
    wide = _inst(1, 17, 0.1, [(1, j, 1.0) for j in range(1, 18)])
    with pytest.raises(OracleGuardError):
        brute_force_mapping(wide)


def test_sample_session_statistics_match_objective():
    inst = _inst(2, 3, 0.3, [(1, 1, 2.0), (2, 3, 4.0)])
    alloc = Allocation(entries=((1, 1), (3, 2)))
    rng = random.Random(54)
    n = 200_000
    total = sum(sample_session(inst, alloc, rng).reward for _ in range(n))
    analytic = expected_reward(inst, alloc)
    assert total / n == pytest.approx(analytic, rel=0.02)


def test_sample_session_refuses_invalid_allocation():
    # at q = 0 every session reaches slot 1, which has no edge to ad 2
    inst = _inst(2, 2, 0.0, [(1, 1, 1.0), (2, 2, 1.0)])
    with pytest.raises(InvalidAllocationError):
        sample_session(inst, Allocation(((1, 2),)), random.Random(56))


def test_sample_session_trace_shape():
    inst = _inst(1, 2, 0.5, [(1, 1, 1.0)])
    alloc = Allocation(entries=((1, 1),))
    rng = random.Random(55)
    trace = sample_session(inst, alloc, rng)
    assert trace.viewed[0] == ("item", 1)
    if trace.quit_position is not None:
        assert trace.quit_position == len(trace.viewed)


def test_simulation_agrees_with_analytic_value():
    rng = make_rng(56)
    for trial in range(10):
        inst = sparse_instance(rng, q_choices=(0.05, 0.1, 0.3, 0.6))
        alloc = random_matching(inst, rng)
        sim = simulate_sessions(inst, alloc, 200_000, seed=trial)
        analytic = expected_reward(inst, alloc)
        assert abs(sim.mean - analytic) <= 5 * sim.stderr + 1e-12


def test_simulation_q_zero_is_deterministic():
    inst = _inst(2, 2, 0.0, [(1, 1, 1.5), (2, 2, 2.5)])
    alloc = Allocation(entries=((1, 1), (2, 2)))
    sim = simulate_sessions(inst, alloc, 1000, seed=1)
    assert sim.mean == pytest.approx(4.0)
    assert sim.stderr == 0.0


def test_simulation_is_deterministic_and_seed_sensitive():
    rng = make_rng(57)
    inst = sparse_instance(rng, q_choices=(0.2,))
    alloc = random_matching(inst, rng)
    a = simulate_sessions(inst, alloc, 50_000, seed=3)
    b = simulate_sessions(inst, alloc, 50_000, seed=3)
    assert a.mean == b.mean and a.stderr == b.stderr
    if len(alloc) > 0:
        c = simulate_sessions(inst, alloc, 50_000, seed=4)
        assert c.mean != a.mean


def test_simulation_rejects_invalid_input():
    inst = _inst(1, 1, 0.1, [(1, 1, 1.0)])
    with pytest.raises(ValueError):
        simulate_sessions(inst, Allocation(entries=((1, 1),)), 0, seed=1)
    bad = Allocation(entries=((1, 2),))  # no such edge
    with pytest.raises(ValueError):
        simulate_sessions(inst, bad, 10, seed=1)


def test_simulation_session_count_is_an_integer_by_the_index_rule():
    inst = _inst(2, 3, 0.2, [(1, 1, 1.0), (2, 3, 2.0)])
    alloc = Allocation(entries=((1, 1), (3, 2)))
    for bad in (1.5, "10", None, math.nan, math.inf, 0, -3.0):
        with pytest.raises(ValueError, match="sessions must be an integer"):
            simulate_sessions(inst, alloc, bad, seed=1)
    a = simulate_sessions(inst, alloc, 1e3, seed=2)
    b = simulate_sessions(inst, alloc, 1000, seed=2)
    assert (a.mean, a.stderr, a.sessions) == (b.mean, b.stderr, 1000)
    assert type(a.sessions) is int
    assert simulate_sessions(inst, alloc, np.int64(10), seed=2).sessions == 10


def test_a_single_session_has_an_infinite_stderr():
    inst = _inst(2, 3, 0.2, [(1, 1, 1.0), (2, 3, 2.0)])
    alloc = Allocation(entries=((1, 1), (3, 2)))
    sim = simulate_sessions(inst, alloc, 1, seed=2)
    assert (sim.stderr, sim.sessions) == (math.inf, 1)
    assert sim.mean in (0.0, 1.0, 3.0)
