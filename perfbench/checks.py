"""Output checks of the benchmark, independent of ``feedalloc.core``'s
objective code.

``reference_reward`` evaluates f(M) = sum r * (1-q)^(j + b) directly from
the instance's edge list, where b counts the occupied slots before slot j.
``mapping_bound`` is the mapping-mode optimum, an upper bound on the reward
of every allocation of the instance (a matching is a mapping): walking the
slots backwards, slot j takes its best edge iff that raises the suffix
value, which is optimal because every suffix value grows with the next one.
"""

from __future__ import annotations

import math

from feedalloc import core
from feedalloc.core import Mode

REL_TOL = 1e-9
SIM_SIGMAS = 5.0


def reference_reward(inst, alloc):
    """f(M) by the direct sum.  Raises ValueError if an entry is not an edge
    of ``inst`` or a slot is used twice."""
    wanted = {(i, j) for j, i in alloc.entries}
    reward = {}
    for i, j, r in inst.edges:
        if (i, j) in wanted:
            reward[j] = r
    if len(reward) != len(alloc.entries):
        raise ValueError("allocation entries are not distinct instance edges")
    s = 1.0 - inst.quit_prob
    return sum(reward[j] * s ** (j + b) for b, j in enumerate(sorted(reward)))


def mapping_bound(inst):
    best = {}
    for _i, j, r in inst.edges:
        if r > best.get(j, 0.0):
            best[j] = r
    q = inst.quit_prob
    value = 0.0
    for j in range(inst.num_slots, 0, -1):
        # value holds R_j; R_{j-1} = (1-q) * (R_j + max(0, r*_j - q R_j))
        value = (1.0 - q) * (value + max(0.0, best.get(j, 0.0) - q * value))
    return value


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def check_outcome(job, inst, out, bound):
    """Problems with one job's outcome, as a list of strings; ``out`` is the
    dict returned by ``workload.run_job``.  Returns (problems, ref_reward)."""
    problems = []
    alloc = out["allocation"]
    expected_mode = Mode.MAPPING if job.algorithm == "gb-mapping" else Mode.MATCHING
    if alloc.mode is not expected_mode:
        problems.append("allocation mode %s" % alloc.mode.value)
    problems += core.validate_allocation(inst, alloc)
    try:
        ref = reference_reward(inst, alloc)
    except ValueError as exc:
        return problems + [str(exc)], None
    if not _close(out["reward"], ref):
        problems.append("reported reward %r != reference %r"
                        % (out["reward"], ref))
    if job.prune_k is None and not _close(out["report"].expected_reward, ref):
        problems.append("solver reward %r != reference %r"
                        % (out["report"].expected_reward, ref))
    if ref > bound * (1.0 + REL_TOL):
        problems.append("reward %r above the mapping optimum %r" % (ref, bound))
    if job.algorithm == "flow":
        q = inst.quit_prob
        cap = int(math.floor((1.0 - q) / q)) if q > 0.0 else len(alloc)
        if len(alloc) > cap:
            problems.append("flow size %d above k(q) = %d" % (len(alloc), cap))
    if job.prune_k is not None and len(alloc) > job.prune_k:
        problems.append("pruned size %d above k = %d" % (len(alloc), job.prune_k))
    if "residual" in out and not out["residual"] <= REL_TOL:
        problems.append("decomposition residual %r" % out["residual"])
    if "simulation" in out:
        sim = out["simulation"]
        if not abs(sim.mean - ref) <= SIM_SIGMAS * sim.stderr:
            problems.append("simulated mean %r is %.1f stderr from %r"
                            % (sim.mean, abs(sim.mean - ref) / sim.stderr, ref))
    return problems, ref
