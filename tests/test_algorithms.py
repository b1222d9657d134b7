"""Backwards greedy (exact gain) and its non-oblivious variant."""

import bisect
import dataclasses
import math
import struct

import pytest

from conftest import make_rng, replay_suffixes, replay_trace, sparse_instance
from feedalloc.algorithms import (backwards_greedy, instrumented_run,
                                  nonoblivious_backwards_greedy)
from feedalloc.baselines import flow_baseline
from feedalloc.core import (Allocation, Mode, ProblemInstance, entry_suffixes,
                            expected_reward, suffix_reward, suffix_value)
from feedalloc.generators import gen_session_blocks, gen_session_youtube
from feedalloc.oracle import brute_force_mapping, brute_force_matching
from suffix_tree import SuffixTree
from unclosed_sweeps import (unclosed_backwards_greedy,
                             unclosed_nonoblivious_backwards_greedy)


def _inst(n, m, q, edges):
    return ProblemInstance(num_ads=n, num_slots=m, quit_prob=q,
                           edges=tuple(edges))


def _suffix_eval(entries, q, base, skip_ad=None, extra=None):
    """suffix_value over ``entries`` (slot-sorted (slot, ad, reward)), with
    all edges of ``skip_ad`` dropped and an optional (slot, reward) ``extra``
    entry merged in at its slot position."""
    s = 1.0 - q
    total = 0.0
    count = 0
    pending = extra if extra is not None and extra[0] > base else None
    for slot, ad, r in entries:
        if slot <= base or ad == skip_ad:
            continue
        if pending is not None and pending[0] < slot:
            total += pending[1] * s ** (pending[0] - base + count)
            count += 1
            pending = None
        total += r * s ** (slot - base + count)
        count += 1
    if pending is not None:
        total += pending[1] * s ** (pending[0] - base + count)
    return total


def naive_backwards_greedy(inst, mode=Mode.MATCHING, initial=None):
    """Reference implementation: score every candidate by re-evaluating the
    whole suffix, g_i = f_{j-1}(M_i) / (1-q) - f_j(M), at O(|E| * |M|).
    The slots of ``initial`` are skipped and its ads locked.  Returns the
    allocation and the counters backwards_greedy reports."""
    q = inst.quit_prob
    s = 1.0 - q
    entries = []          # slot-ascending (slot, ad, reward)
    matched_slot = {}     # ad -> slot, matching mode only
    locked = set()
    if initial:
        entries = sorted((j, i, inst.reward(i, j)) for j, i in initial)
        matched_slot = {i: j for j, i, _ in entries}
        locked = set(matched_slot)
    frozen = {j for j, _i, _r in entries}
    evals = commits = reassigns = 0
    for j in range(inst.num_slots, 0, -1):
        cands = inst.row(j)[0]
        if j in frozen or not cands:
            continue
        fj = suffix_value([(slot, r) for slot, _, r in entries], q, base=j)
        best_i = None
        best_g = 0.0
        best_reassign = False
        for i in cands:
            if i in locked:
                continue
            r = inst.reward(i, j)
            reassign = mode is Mode.MATCHING and i in matched_slot
            skip = i if reassign else None
            fjm1 = _suffix_eval(entries, q, j - 1, skip_ad=skip, extra=(j, r))
            g = fjm1 / s - fj
            evals += 1
            if best_i is None or g > best_g:
                best_i, best_g, best_reassign = i, g, reassign
        if best_g > 0.0:
            commits += 1
            if best_reassign:
                reassigns += 1
                entries = [e for e in entries if e[1] != best_i]
            bisect.insort(entries, (j, best_i, inst.reward(best_i, j)))
            if mode is Mode.MATCHING:
                matched_slot[best_i] = j
    alloc = Allocation(entries=tuple((j, i) for j, i, _ in entries), mode=mode)
    return alloc, {"gain_evals": evals, "commits": commits,
                   "reassignments": reassigns}


def tree_backwards_greedy(inst, mode=Mode.MATCHING, initial=None):
    """Reference exact-gain sweep on a ``SuffixTree``: f_j, f_sigma and the
    entry counts are read from the tree, at O(log m) per re-assignable
    candidate, and every reward through ``inst.reward``.  Returns the
    allocation and the counters backwards_greedy reports."""
    q = inst.quit_prob
    m = inst.num_slots
    matching = mode is Mode.MATCHING
    tree = SuffixTree(m, q)
    powers = tree.powers
    rewards = {}          # slot -> reward of its entry
    ad_at = {}            # slot -> ad of its entry
    matched_slot = {}     # ad -> slot, matching mode only
    for j, i in initial or ():
        r = inst.reward(i, j)
        rewards[j], ad_at[j] = r, i
        tree.insert(j, r)
        matched_slot[i] = j
    locked = set(matched_slot)
    frozen = set(ad_at)
    evals = commits = reassigns = 0
    for j in range(m, 0, -1):
        if j in frozen:
            continue
        cands = inst.row(j)[0]
        if not cands:
            continue
        above, fj = tree.suffix(j)
        best_i = None
        best_g = 0.0
        best_reassign = False
        for i in cands:
            if i in locked:
                continue
            g = inst.reward(i, j) - q * fj
            reassign = matching and i in matched_slot
            if reassign:
                sigma = matched_slot[i]
                after, f_sigma = tree.suffix(sigma)
                # (1-q)^(sigma - j + p_i + 1), p_i = above - after - 1
                g -= powers[sigma - j + above - after] \
                    * (rewards[sigma] - q * f_sigma)
            evals += 1
            if best_i is None or g > best_g:
                best_i, best_g, best_reassign = i, g, reassign
        if best_g > 0.0:
            commits += 1
            if best_reassign:
                reassigns += 1
                old = matched_slot[best_i]
                del rewards[old], ad_at[old]
                tree.remove(old)
            r = inst.reward(best_i, j)
            rewards[j], ad_at[j] = r, best_i
            tree.insert(j, r)
            if matching:
                matched_slot[best_i] = j
    alloc = Allocation(entries=tuple(ad_at.items()), mode=mode)
    return alloc, {"gain_evals": evals, "commits": commits,
                   "reassignments": reassigns}


def dict_nonoblivious_backwards_greedy(inst):
    """Reference non-oblivious sweep: rewards read through ``inst.reward``,
    per-ad tau and slot in dicts, and every tau recomputed by a full
    ``entry_suffixes`` pass after a re-assignment.  Returns the allocation,
    the counters nonoblivious_backwards_greedy reports and the gain bound
    g_LB of every slot with candidates."""
    q = inst.quit_prob
    s = 1.0 - q
    m = inst.num_slots
    entries = []          # slot-ascending (slot, ad, reward)
    tau = {}
    sigma = {}            # ad -> matched slot
    commits = reassigns = scored = 0
    gains = []
    cur = 0.0             # f_j(M) for the slot being processed
    for j in range(m, 0, -1):
        if j < m:
            # roll f_{j+1} -> f_j over slot j+1 (one backward-recursion step)
            if entries and entries[0][0] == j + 1:
                r_next = entries[0][2]
                cur = s * (cur + (r_next - q * cur))
            else:
                cur = s * cur
        cands = inst.row(j)[0]
        if not cands:
            continue
        best_i = None
        best_score = 0.0
        for i in cands:
            t = tau.get(i)
            if t is None:
                score = inst.reward(i, j)
            else:
                score = inst.reward(i, j) - t * s ** (sigma[i] - j)
            scored += 1
            if best_i is None or score > best_score:
                best_i, best_score = i, score
        gains.append(best_score - q * cur)
        if gains[-1] > 0.0:
            commits += 1
            r = inst.reward(best_i, j)
            reassigned = best_i in sigma
            if reassigned:
                reassigns += 1
                entries = [e for e in entries if e[1] != best_i]
            entries.insert(0, (j, best_i, r))
            sigma[best_i] = j
            if reassigned:
                # removing the old edge changes f_j and every later tau
                f = entry_suffixes([(jj, rr) for jj, _i, rr in entries], q)
                cur = f[0]
                for (_slot, ad, rr), fp in zip(entries, f):
                    tau[ad] = rr - q * fp
            else:
                tau[best_i] = r - q * cur
    alloc = Allocation(entries=tuple((j, i) for j, i, _ in entries),
                       mode=Mode.MATCHING)
    return alloc, {"scores": scored, "commits": commits,
                   "reassignments": reassigns}, gains


def _assert_same_as_oracle(inst, mode=Mode.MATCHING, **seed):
    report = backwards_greedy(inst, mode=mode, **seed)
    alloc, counters = naive_backwards_greedy(inst, mode=mode, **seed)
    assert report.allocation.entries == alloc.entries
    assert report.counters == counters


def _float_instance(rng, n, m, q, density):
    """Unrounded uniform rewards, so exact gain ties have probability 0."""
    edges = [(i, j, rng.uniform(0.1, 10.0)) for i in range(1, n + 1)
             for j in range(1, m + 1) if rng.random() < density]
    return _inst(n, m, q, edges)


def test_mapping_mode_is_exact_on_random_instances():
    rng = make_rng(21)
    for _ in range(100):
        inst = sparse_instance(rng, m_max=8)
        report = backwards_greedy(inst, mode=Mode.MAPPING)
        _alloc, opt = brute_force_mapping(inst)
        assert report.expected_reward == pytest.approx(opt, rel=1e-9, abs=1e-12)


def test_matching_mode_is_half_optimal():
    rng = make_rng(22)
    for _ in range(100):
        inst = sparse_instance(rng, max_edges=18)
        _alloc, opt = brute_force_matching(inst)
        for solver in (backwards_greedy, nonoblivious_backwards_greedy):
            report = solver(inst)
            assert report.expected_reward >= 0.5 * opt - 1e-9


def test_reported_reward_matches_reevaluation():
    rng = make_rng(23)
    for _ in range(50):
        inst = sparse_instance(rng)
        for solver in (backwards_greedy, nonoblivious_backwards_greedy):
            report = solver(inst)
            assert report.expected_reward == pytest.approx(
                expected_reward(inst, report.allocation), rel=1e-12)


def test_tie_breaks_to_lowest_ad_index():
    inst = _inst(3, 1, 0.1, [(2, 1, 5.0), (3, 1, 5.0), (1, 1, 4.0)])
    report = backwards_greedy(inst)
    assert report.allocation.entries == ((1, 2),)


def test_reassignment_moves_ad_to_better_slot():
    # ad 1 is worth much more at slot 1; processed later, so it must be moved
    inst = _inst(1, 2, 0.1, [(1, 1, 10.0), (1, 2, 1.0)])
    report, logs = instrumented_run(backwards_greedy, inst)
    assert report.allocation.entries == ((1, 1),)
    assert report.counters["reassignments"] == 1
    assert any(entry.reassigned for entry in logs)


def test_negative_gain_candidates_are_skipped():
    # after the huge slot-2 ad is placed, adding the slot-1 ad costs more
    # attention (q times the suffix) than its own reward pays
    inst = _inst(2, 2, 0.5, [(1, 1, 1.0), (2, 2, 100.0)])
    report = backwards_greedy(inst)
    assert report.allocation.entries == ((2, 2),)


def test_gb_log_gains_match_suffix_snapshots():
    rng = make_rng(24)
    s_tol = 1e-9
    for _ in range(50):
        inst = sparse_instance(rng, q_choices=(0.1, 0.3, 0.6))
        s = 1.0 - inst.quit_prob
        _report, logs = instrumented_run(backwards_greedy, inst)
        for entry, (before, after) in zip(logs, replay_suffixes(inst, logs)):
            if not entry.committed:
                continue
            exact = after[entry.slot - 1] / s - before[entry.slot]
            assert entry.gain == pytest.approx(exact, rel=1e-9, abs=1e-9)
            assert entry.gain > 0.0
            assert entry.chosen is not None


def test_gbp_lower_bound_never_exceeds_exact_gain():
    rng = make_rng(25)
    for _ in range(100):
        inst = sparse_instance(rng, q_choices=(0.05, 0.1, 0.3, 0.6))
        s = 1.0 - inst.quit_prob
        _report, logs = instrumented_run(nonoblivious_backwards_greedy, inst)
        for entry, (before, after) in zip(logs, replay_suffixes(inst, logs)):
            if not entry.committed:
                continue
            exact = after[entry.slot - 1] / s - before[entry.slot]
            assert entry.gain <= exact + 1e-9


def test_gbp_matches_gb_on_fresh_only_runs():
    # without re-assignments the surrogate score equals the exact gain,
    # so both algorithms commit the same entries
    inst = _inst(3, 3, 0.2, [(1, 1, 3.0), (2, 2, 2.0), (3, 3, 1.0)])
    gb = backwards_greedy(inst)
    gbp = nonoblivious_backwards_greedy(inst)
    assert gbp.counters["reassignments"] == 0
    assert gbp.allocation.entries == gb.allocation.entries


def test_seeded_sweep_respects_frozen_and_locked():
    # flow-style seeding: ad 1 fixed at slot 1, sweep fills the rest
    inst = _inst(2, 3, 0.1, [(1, 1, 5.0), (1, 3, 50.0), (2, 2, 2.0)])
    report = backwards_greedy(inst, initial=((1, 1),))
    entries = dict(report.allocation.entries)
    # ad 1 stays at slot 1 even though slot 3 pays more
    assert entries[1] == 1
    assert entries[2] == 2


def test_empty_instance_yields_empty_allocation():
    inst = _inst(0, 4, 0.1, [])
    for solver in (backwards_greedy, nonoblivious_backwards_greedy):
        report = solver(inst)
        assert len(report.allocation) == 0
        assert report.expected_reward == 0.0


def test_suffix_values_are_consistent_with_final_allocation():
    rng = make_rng(26)
    for _ in range(30):
        inst = sparse_instance(rng)
        report, logs = instrumented_run(backwards_greedy, inst)
        if not logs:
            continue
        final = replay_suffixes(inst, logs)[-1][1]
        for j in range(inst.num_slots + 1):
            assert final[j] == pytest.approx(
                suffix_reward(inst, report.allocation, j), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("mode", [Mode.MATCHING, Mode.MAPPING])
def test_gb_equals_naive_oracle(mode):
    rng = make_rng(27)
    for _ in range(300):
        inst = _float_instance(rng, rng.randint(1, 8), rng.randint(1, 12),
                               rng.choice((0.0, 0.05, 0.1, 0.3, 0.6, 0.9)),
                               rng.uniform(0.2, 1.0))
        _assert_same_as_oracle(inst, mode)


def test_seeded_sweep_equals_naive_oracle():
    # the flow_greedy set-up: the flow's pairs are frozen and locked
    rng = make_rng(28)
    for _ in range(200):
        inst = _float_instance(rng, rng.randint(1, 8), rng.randint(1, 12),
                               rng.choice((0.05, 0.1, 0.2, 0.3)),
                               rng.uniform(0.2, 1.0))
        flow = flow_baseline(inst).allocation
        _assert_same_as_oracle(inst, initial=flow.entries)


def test_gb_equals_naive_oracle_where_discounts_underflow():
    # 0.9 ** 8000 == 0.0 in float64: the kernel must keep sums relative
    rng = make_rng(29)
    inst = _float_instance(rng, 5, 8000, 0.1, 0.002)
    assert (1.0 - inst.quit_prob) ** inst.num_slots == 0.0
    for mode in (Mode.MATCHING, Mode.MAPPING):
        _assert_same_as_oracle(inst, mode)


def _assert_same_as_previous_sweeps(inst, mode=Mode.MATCHING, **seed):
    """backwards_greedy gives the entries and counters of the tree-based
    reference, and (unseeded, matching mode) nonoblivious_backwards_greedy
    those of the dict-based one."""
    report = backwards_greedy(inst, mode=mode, **seed)
    alloc, counters = tree_backwards_greedy(inst, mode=mode, **seed)
    assert report.allocation.entries == alloc.entries
    assert report.counters == counters
    if mode is Mode.MATCHING and not seed:
        report = nonoblivious_backwards_greedy(inst)
        alloc, counters, _gains = dict_nonoblivious_backwards_greedy(inst)
        assert report.allocation.entries == alloc.entries
        assert report.counters == counters


def _tie_instance(rng, n, m, q, density):
    """Integer rewards 1..4, so equal gains and scores are common."""
    edges = [(i, j, float(rng.randint(1, 4))) for i in range(1, n + 1)
             for j in range(1, m + 1) if rng.random() < density]
    return _inst(n, m, q, edges)


@pytest.mark.parametrize("mode", [Mode.MATCHING, Mode.MAPPING])
@pytest.mark.parametrize("make", [_float_instance, _tie_instance])
def test_sweeps_equal_previous_sweeps(mode, make):
    rng = make_rng(30)
    for _ in range(300):
        inst = make(rng, rng.randint(1, 10), rng.randint(1, 30),
                    rng.choice((0.0, 0.05, 0.1, 0.3, 0.6, 0.9)),
                    rng.uniform(0.2, 1.0))
        _assert_same_as_previous_sweeps(inst, mode)


@pytest.mark.parametrize("make", [_float_instance, _tie_instance])
def test_seeded_sweep_equals_previous_sweep(make):
    rng = make_rng(31)
    for _ in range(200):
        inst = make(rng, rng.randint(1, 10), rng.randint(1, 30),
                    rng.choice((0.05, 0.1, 0.2, 0.3)), rng.uniform(0.2, 1.0))
        flow = flow_baseline(inst).allocation
        for mode in (Mode.MATCHING, Mode.MAPPING):
            _assert_same_as_previous_sweeps(inst, mode, initial=flow.entries)


@pytest.mark.parametrize("make", [_float_instance, _tie_instance])
def test_gbp_gains_equal_previous_sweep_bit_for_bit(make):
    # after a re-assignment every tau, also that of an entry added since
    # the previous one, comes from the entry_suffixes recursion
    rng = make_rng(33)
    for _ in range(200):
        inst = make(rng, rng.randint(1, 10), rng.randint(1, 30),
                    rng.choice((0.05, 0.1, 0.3, 0.6)), rng.uniform(0.2, 1.0))
        _report, logs = instrumented_run(nonoblivious_backwards_greedy, inst)
        _alloc, _counters, gains = dict_nonoblivious_backwards_greedy(inst)
        assert [log.gain for log in logs if log.candidates] == gains


def test_gbp_scores_an_ad_whose_tau_rounds_below_zero():
    # ad 2's slot-4 reward exceeds q * f_4 by one ulp of the rolled f_4, so
    # it commits, but falls short of q * f_4 from the entry_suffixes
    # recursion, which the re-assignment at slot 2 gives it: its tau is
    # below zero.  At slot 1 its score exceeds its reward, which only ties
    # ad 1's, so the scan must score it to pick it
    inst = _inst(5, 6, 0.2, [(4, 6, 3.8), (5, 5, 7.817),
                             (2, 4, 1.6398400000000002), (3, 3, 2.514),
                             (3, 2, 2.734), (1, 1, 1.1091184640000005),
                             (2, 1, 1.1091184640000005)])
    report, logs = instrumented_run(nonoblivious_backwards_greedy, inst)
    alloc, counters, gains = dict_nonoblivious_backwards_greedy(inst)
    assert report.allocation.entries == alloc.entries
    assert report.counters == counters
    assert [log.gain for log in logs if log.candidates] == gains
    assert dict(report.allocation.entries)[1] == 2


def test_sweeps_equal_previous_sweeps_where_discounts_underflow():
    rng = make_rng(32)
    inst = _float_instance(rng, 5, 8000, 0.1, 0.002)
    assert (1.0 - inst.quit_prob) ** inst.num_slots == 0.0
    for mode in (Mode.MATCHING, Mode.MAPPING):
        _assert_same_as_previous_sweeps(inst, mode)


def test_seeded_sweep_equals_previous_sweep_where_discounts_underflow():
    # (1-q)^j keeps the flow's pairs at the lowest slots, so they join the
    # entry list late; the gaps between them, dense below slot 300, hold
    # moves of ads from above a locked entry
    rng = make_rng(37)
    inst = _inst(20, 8000, 0.1, [(i, j, rng.uniform(0.1, 10.0))
                                 for i in range(1, 21) for j in range(1, 8001)
                                 if rng.random() < (0.3 if j <= 300 else 0.002)])
    assert (1.0 - inst.quit_prob) ** inst.num_slots == 0.0
    flow = flow_baseline(inst).allocation.entries
    for mode in (Mode.MATCHING, Mode.MAPPING):
        _assert_same_as_previous_sweeps(inst, mode, initial=flow)
    _report, logs = instrumented_run(backwards_greedy, inst, initial=flow)
    slot_of, crossing = {}, 0
    for rec in logs:
        if rec.reassigned:
            crossing += any(rec.slot < j < slot_of[rec.chosen]
                            for j, _i in flow)
        if rec.committed:
            slot_of[rec.chosen] = rec.slot
    assert crossing


def test_sweeps_equal_previous_sweeps_on_session_instances():
    for seed in (1, 2):
        for inst in (gen_session_blocks(m=60, seed=seed, blocks=6,
                                        categories=8, slots_per_block=5),
                     gen_session_youtube(m=40, seed=seed, advertisers=3,
                                         num_categories=4)):
            for mode in (Mode.MATCHING, Mode.MAPPING):
                _assert_same_as_previous_sweeps(inst, mode)


def _traced_runs(inst):
    """(report, logs, initial) of every traced sweep: gb in both modes,
    gb seeded with the flow baseline's pairs, and gbp."""
    flow = flow_baseline(inst).allocation.entries
    for solver, kwargs in ((backwards_greedy, {"mode": Mode.MATCHING}),
                           (backwards_greedy, {"mode": Mode.MAPPING}),
                           (backwards_greedy, {"initial": flow}),
                           (nonoblivious_backwards_greedy, {})):
        report, logs = instrumented_run(solver, inst, **kwargs)
        yield report, logs, kwargs.get("initial", ())


@pytest.mark.parametrize("make", [_float_instance, _tie_instance])
def test_replayed_trace_ends_at_the_reported_allocation(make):
    rng = make_rng(34)
    for _ in range(100):
        inst = make(rng, rng.randint(1, 10), rng.randint(1, 30),
                    rng.choice((0.05, 0.1, 0.3, 0.6)), rng.uniform(0.2, 1.0))
        for report, logs, initial in _traced_runs(inst):
            assert replay_trace(logs, initial)[-1] == report.allocation.entries


def test_trace_records_hold_scalars_only():
    # a trace costs O(1) per slot, so O(m) per run
    rng = make_rng(35)
    records = 0
    for _ in range(50):
        inst = _float_instance(rng, rng.randint(1, 10), rng.randint(1, 30),
                               rng.choice((0.05, 0.1, 0.3)),
                               rng.uniform(0.2, 1.0))
        for _report, logs, _initial in _traced_runs(inst):
            for rec in logs:
                records += 1
                for field in dataclasses.fields(rec):
                    value = getattr(rec, field.name)
                    assert value is None or type(value) in (int, float, bool), \
                        (field.name, value)
    assert records


def _record(rec):
    """A log record's fields, its gain as bytes, so equal means bit for bit
    and NaN equals NaN."""
    gain = "nan" if math.isnan(rec.gain) else struct.pack("<d", rec.gain)
    return dataclasses.astuple(rec)[:3] + (gain, rec.committed, rec.reassigned)


def _sweeps(inst):
    """(solver, oracle, kwargs) of every sweep: gb in both modes, gb
    seeded with the flow baseline's pairs in both modes, and gbp."""
    flow = flow_baseline(inst).allocation.entries
    for mode in (Mode.MATCHING, Mode.MAPPING):
        yield backwards_greedy, unclosed_backwards_greedy, {"mode": mode}
        yield (backwards_greedy, unclosed_backwards_greedy,
               {"mode": mode, "initial": flow})
    yield (nonoblivious_backwards_greedy,
           unclosed_nonoblivious_backwards_greedy, {})


def _top_moves(logs, initial):
    """How many re-assignments of a trace move the top entry: the chosen ad
    leaves the highest occupied slot above the record's own."""
    slot_of = {i: j for j, i in initial}
    occupied = set(slot_of.values())
    moves = 0
    for rec in logs:
        if rec.reassigned:
            old = slot_of[rec.chosen]
            moves += old == max(occupied)
            occupied.remove(old)
        if rec.committed:
            slot_of[rec.chosen] = rec.slot
            occupied.add(rec.slot)
    return moves


def _assert_same_as_unclosed_sweeps(inst):
    """Every sweep gives the oracle's entries, counters, reward and log
    records; returns how many of its re-assignments moved the top entry."""
    moves = 0
    for solver, oracle, kwargs in _sweeps(inst):
        report, logs = instrumented_run(solver, inst, **kwargs)
        old, old_logs = instrumented_run(oracle, inst, **kwargs)
        assert report.algorithm == old.algorithm
        assert report.allocation == old.allocation
        assert report.counters == old.counters
        assert report.expected_reward == old.expected_reward
        assert list(map(_record, logs)) == list(map(_record, old_logs))
        moves += _top_moves(logs, kwargs.get("initial", ()))
    return moves


@pytest.mark.parametrize("make", [_float_instance, _tie_instance])
def test_sweeps_equal_unclosed_sweeps(make):
    rng = make_rng(40)
    moves = 0
    for _ in range(200):
        inst = make(rng, rng.randint(1, 10), rng.randint(0, 30),
                    rng.choice((0.0, 0.05, 0.1, 0.3, 0.6, 0.9)),
                    rng.uniform(0.2, 1.0))
        moves += _assert_same_as_unclosed_sweeps(inst)
    # a move of the top entry restarts the recursion from the closing entry
    assert moves


def test_sweeps_equal_unclosed_sweeps_where_discounts_underflow():
    rng = make_rng(41)
    _assert_same_as_unclosed_sweeps(_float_instance(rng, 5, 8000, 0.1, 0.002))
    inst = _inst(20, 8000, 0.1, [(i, j, rng.uniform(0.1, 10.0))
                                 for i in range(1, 21) for j in range(1, 8001)
                                 if rng.random() < (0.3 if j <= 300 else 0.002)])
    assert (1.0 - inst.quit_prob) ** inst.num_slots == 0.0
    assert _assert_same_as_unclosed_sweeps(inst)


def test_sweeps_equal_unclosed_sweeps_on_session_instances():
    for seed in (1, 2):
        for inst in (gen_session_blocks(m=60, seed=seed, blocks=6,
                                        categories=8, slots_per_block=5),
                     gen_session_youtube(m=40, seed=seed, advertisers=3,
                                         num_categories=4)):
            _assert_same_as_unclosed_sweeps(inst)
