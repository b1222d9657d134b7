"""Data model and objective evaluation for ad placement in content feeds.

An instance consists of n ads, m slots (slot j sits right after the j-th
organic item), a quit probability q and a sparse set of (ad, slot, reward)
edges.  An allocation places at most one ad per slot; in matching mode an
ad may be used at most once, in mapping mode it may be reused.

The expected reward of an allocation M is

    f(M) = sum over (i, j) in M of  r_ij * (1 - q)^(j + B(j))

where B(j) is the number of occupied slots strictly before j: the user must
survive j item-views plus B(j) ad-views to reach the ad at slot j.

``ProblemInstance`` checks each edge as it files it into its slot's row:
the ads in increasing index and their rewards in a parallel array of
doubles (``row``).  The slot-scanning solvers read the rows; ``reward``
bisects one.  Every index, of an edge, an allocation entry or a suffix,
must equal its ``int()``; none is truncated.  ``checked_pairs`` is the one
place an allocation is checked and its rewards read.  Two evaluators
compute f and its suffix values f_j(M), one job each:

- ``suffix_value``: the direct fold.  It is the reference behind
  ``expected_reward``, ``suffix_reward`` and the brute-force oracles.
- ``entry_suffixes``: f_j(M) at every occupied slot in one backward pass,
  for ``prune_to_k``, ``suffix_vector``, ``decompose`` and
  ``feedalloc verify``.  The greedy solvers cache these values per entry
  and re-run the recursion only below an entry that changed: the
  backward sweeps at once, in O(1) per candidate, and ``global_greedy``,
  which commits slots in no fixed order, when it next reads below one.
"""

from __future__ import annotations

import math
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from operator import ge


class Mode(Enum):
    MAPPING = "mapping"
    MATCHING = "matching"


class InvalidInstanceError(ValueError):
    """An input the model forbids; the message lists every problem."""


def _converted(kind, x):
    """``kind(x)`` if it equals ``x``, else NaN.  An index must equal its
    ``int()`` and a real its ``float()``: none is truncated or parsed."""
    try:
        y = kind(x)
    except (TypeError, ValueError, OverflowError):
        return math.nan
    return y if y == x else math.nan


@dataclass
class ProblemInstance:
    """Immutable problem input. Do not mutate after construction.

    Ads are indexed 1..num_ads, slots 1..num_slots.  ``edges`` holds
    (ad, slot, reward) triples; the slot set of ad i is the set of slots
    it has an edge to.  Construction raises ``InvalidInstanceError`` on any
    problem, so no invalid instance exists.  The sizes are kept as the
    ``int`` and q as the ``float`` they were checked as.
    """

    num_ads: int
    num_slots: int
    quit_prob: float
    edges: tuple = ()

    def __post_init__(self):
        n, m = _converted(int, self.num_ads), _converted(int, self.num_slots)
        q = _converted(float, self.quit_prob)
        problems = ["%s must be a non-negative integer" % name
                    for name, count in (("num_ads", n), ("num_slots", m))
                    if not count >= 0]    # NaN unless an integer
        bad, inf = problems.append, math.inf
        if not 0.0 <= q < 1.0:
            bad("quit_prob out of range [0, 1): %r" % (self.quit_prob,))
        edges, ads_at, rewards_at = [], {}, {}
        try:
            raw_edges = iter(self.edges)
        except TypeError:
            bad("edges %r: not an iterable of edges" % (self.edges,))
            raw_edges = ()
        for edge in raw_edges:
            try:
                raw_i, raw_j, raw_r = edge
            except (TypeError, ValueError):
                bad("edge %r: not an (ad, slot, reward) triple" % (edge,))
                continue
            try:
                i, j, r = int(raw_i), int(raw_j), float(raw_r)
            except (TypeError, ValueError, OverflowError):  # a bad field: NaN
                i, j, r = (_converted(int, raw_i), _converted(int, raw_j),
                           _converted(float, raw_r))
            if i != raw_i or j != raw_j:  # int() truncated or parsed text
                bad("edge (%r, %r): non-integer index" % (raw_i, raw_j))
                continue
            if not 1 <= i <= n:
                bad("edge (%d, %d): ad index out of range" % (i, j))
            if not 1 <= j <= m:
                bad("edge (%d, %d): slot index out of range" % (i, j))
            if not (0.0 <= r < inf and r == raw_r):
                bad("edge (%d, %d): reward %r invalid" % (i, j, raw_r))
            edges.append((i, j, r))
            try:
                ads_at[j].append(i)
                rewards_at[j].append(r)
            except KeyError:    # the slot's first edge
                ads_at[j], rewards_at[j] = [i], [r]
        for j, ads in ads_at.items():
            rewards = rewards_at[j]
            if any(map(ge, ads, islice(ads, 1, None))):  # not ascending
                order = sorted(range(len(ads)), key=ads.__getitem__)
                ads[:] = [ads[k] for k in order]
                rewards[:] = [rewards[k] for k in order]
                problems.extend("duplicate edge (%d, %d)" % (i, j)
                                for i, prev in zip(islice(ads, 1, None), ads)
                                if i == prev)
            # contiguous doubles: a row scan reads no scattered float objects
            rewards_at[j] = array("d", rewards)
        if problems:
            raise InvalidInstanceError("invalid instance: "
                                       + "; ".join(problems))
        self.num_ads, self.num_slots, self.quit_prob = n, m, q
        self.edges = tuple(edges)
        self._ads, self._rewards = ads_at, rewards_at

    def reward(self, ad, slot):
        """r_{ad, slot}; raises ``KeyError`` if there is no such edge."""
        ads = self._ads.get(slot, ())
        k = bisect_left(ads, ad)
        if k == len(ads) or ads[k] != ad:
            raise KeyError((ad, slot))
        return self._rewards[slot][k]

    def candidates(self, slot):
        """Ads with an edge to ``slot``, in increasing ad index."""
        return self._ads.get(slot, [])

    def row(self, slot):
        """(ads, rewards) of ``slot``: ``candidates(slot)`` and, in the same
        order, the reward of each of those edges as an ``array('d')``.
        Read-only."""
        return self._ads.get(slot, ()), self._rewards.get(slot, ())


class InvalidAllocationError(ValueError):
    """A non-integer entry, or a problem ``validate_allocation`` finds."""


@dataclass(frozen=True)
class Allocation:
    """A frozen slot -> ad assignment, kept as slot-sorted (slot, ad) pairs;
    an entry whose slot or ad is not an integer raises at construction."""

    entries: tuple
    mode: Mode = Mode.MATCHING
    _checked: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = []
        for entry in self.entries:
            try:
                j, i = entry
                pair = int(j), int(i)
            except (TypeError, ValueError, OverflowError):
                pair = j = i = None
            if pair != (j, i):  # no pair, or int() truncated or parsed text
                raise InvalidAllocationError("invalid allocation: entry %r is "
                                             "not a pair of integers" % (entry,))
            entries.append(pair)
        object.__setattr__(self, "entries", tuple(sorted(entries)))

    def __len__(self):
        return len(self.entries)

    def slots(self):
        return [j for j, _ in self.entries]

    def ads(self):
        return [i for _, i in self.entries]


@dataclass
class DecompositionTerm:
    """One slot's term in the backward decomposition of a suffix reward."""

    slot: int
    occupied: bool
    tau: float       # r_{e_j} - q * R_j, 0 for an empty slot
    discount: float  # (1 - q)^(slot - base)


@dataclass
class SolveReport:
    """Outcome of one solver run, built by ``solve_report``: the reward is
    always recomputed by direct objective evaluation of the allocation,
    never read from solver internals."""

    algorithm: str
    allocation: Allocation
    expected_reward: float
    wall_time: float
    counters: dict = field(default_factory=dict)


def validate_allocation(inst, alloc):
    """Return a list of violations of ``alloc`` against ``inst``.  The same
    pass reads the rewards; ``alloc`` keeps both for the last ``inst``."""
    memo = alloc._checked
    if memo is not None and memo[0] is inst:
        return list(memo[1])
    problems, pairs, ads_used, prev = [], [], set(), None
    for j, i in alloc.entries:
        if j == prev:  # entries are slot-sorted
            problems.append("slot %d assigned more than once" % j)
        prev = j
        if alloc.mode is Mode.MATCHING and i in ads_used:
            problems.append("ad %d used more than once in matching mode" % i)
        ads_used.add(i)
        try:
            r = inst.reward(i, j)
        except KeyError:
            r = None
            problems.append("entry (slot %d, ad %d) is not an instance edge" % (j, i))
        pairs.append((j, r))
    object.__setattr__(alloc, "_checked", (inst, tuple(problems), tuple(pairs)))
    return problems


def checked_pairs(inst, alloc):
    """The slot-sorted (slot, reward) pairs of ``alloc``; raises if invalid."""
    problems = validate_allocation(inst, alloc)
    if problems:
        raise InvalidAllocationError("invalid allocation: " + "; ".join(problems))
    return alloc._checked[2]


def suffix_value(pairs, q, base=0):
    """Evaluate the suffix objective directly from slot-sorted (slot, reward)
    pairs: sum of r * (1-q)^(slot - base + #occupied-in-between) over pairs
    with slot > base."""
    s = 1.0 - q
    total = 0.0
    count = 0
    for slot, r in pairs:
        if slot <= base:
            continue
        total += r * s ** (slot - base + count)
        count += 1
    return total


def discount_powers(q, count):
    """[(1-q)^k for k = 0..count - 1], as direct evaluation computes them."""
    return [(1.0 - q) ** k for k in range(count)]


def expected_reward(inst, alloc):
    """f(M), the expected session reward of a valid allocation."""
    return suffix_value(checked_pairs(inst, alloc), inst.quit_prob, base=0)


def solve_report(name, inst, entries, t0, counters=None, mode=Mode.MATCHING):
    """A solver run's report: the allocation of ``entries``, scored by
    ``expected_reward``, and the wall time since ``t0``, read after scoring."""
    alloc = Allocation(entries=tuple(entries), mode=mode)
    return SolveReport(name, alloc, expected_reward(inst, alloc),
                       time.perf_counter() - t0, counters or {})


def suffix_reward(inst, alloc, j):
    """f_j(M): expected reward counting only slots after j, with attention
    restarted at slot j.  f_0 equals the full objective; f_m is 0."""
    pairs = checked_pairs(inst, alloc)
    return suffix_value(pairs, inst.quit_prob, base=_suffix_index(inst, j))


def _suffix_index(inst, j):
    """``j`` as an int; raises ``ValueError`` unless it is one in 0..m."""
    k = _converted(int, j)
    if not 0 <= k <= inst.num_slots:
        raise ValueError("suffix index %r not in 0..%d" % (j, inst.num_slots))
    return k


def entry_suffixes(pairs, q):
    """f_{slot_p}(M) for every entry p of slot-sorted (slot, reward) pairs,
    in one backward pass:

        f_p = (1-q)^(slot_{p+1} - slot_p) * (r_{p+1} + (1-q) * f_{p+1}),

    with f = 0 at the last entry.  Each value is relative to its own slot,
    so none underflows where ``suffix_value`` at that base does not."""
    s = 1.0 - q
    out = [0.0] * len(pairs)
    for p in range(len(pairs) - 2, -1, -1):
        next_slot, next_r = pairs[p + 1]
        out[p] = s ** (next_slot - pairs[p][0]) * (next_r + s * out[p + 1])
    return out


def suffix_vector(pairs, q, m):
    """All suffix values [f_0, ..., f_m] of slot-sorted (slot, reward)
    pairs: with p the first entry after j,
    f_j = (1-q)^(slot_p - j) * (r_p + (1-q) * f_{slot_p}), and 0 past the
    last entry."""
    s = 1.0 - q
    out = [0.0] * (m + 1)
    j = 0
    for (slot, r), f in zip(pairs, entry_suffixes(pairs, q)):
        head = r + s * f
        while j < slot:
            out[j] = s ** (slot - j) * head
            j += 1
    return out


def decompose(inst, alloc, j):
    """Per-slot terms of the backward decomposition of R_j = f_j(M):

        R_j = sum_{j' > j} (1-q)^(j'-j) * [slot j' occupied] * (r_{e_j'} - q R_{j'})

    The R_{j'} values come from ``entry_suffixes``, so summing the returned
    terms gives an independent reconstruction of suffix_reward.
    """
    pairs = checked_pairs(inst, alloc)
    j = _suffix_index(inst, j)
    q = inst.quit_prob
    s = 1.0 - q
    taus = {slot: r - q * f
            for (slot, r), f in zip(pairs, entry_suffixes(pairs, q))}
    return [DecompositionTerm(slot=jp, occupied=jp in taus,
                              tau=taus.get(jp, 0.0), discount=s ** (jp - j))
            for jp in range(j + 1, inst.num_slots + 1)]


# ---------------------------------------------------------------------------
# Text formats.  Instance: header "n m q", then "i j r" per edge.
# Allocation: "j i" per entry.  Reals use 17 significant digits, which
# round-trips float64 exactly.

def _fmt(x):
    return "%.17g" % x


def write_instance(inst, path):
    with open(path, "w") as fh:
        fh.write("%d %d %s\n" % (inst.num_ads, inst.num_slots, _fmt(inst.quit_prob)))
        for i, j, r in inst.edges:
            fh.write("%d %d %s\n" % (i, j, _fmt(r)))


class FormatError(ValueError):
    """A malformed instance or allocation file; the message starts with
    ``path:line``."""


def _read_records(path, types):
    """One tuple per non-blank line of ``path``, with field k converted by
    ``types[k]``."""
    records = []
    # an undecodable byte fails its field's conversion, on its own line
    with open(path, errors="surrogateescape") as fh:
        for lineno, ln in enumerate(fh, 1):
            fields = ln.split()
            if not fields:
                continue
            if len(fields) != len(types):
                raise FormatError("%s:%d: expected %d fields, got %d"
                                  % (path, lineno, len(types), len(fields)))
            try:
                records.append(tuple(t(x) for t, x in zip(types, fields)))
            except ValueError as exc:
                raise FormatError("%s:%d: %s" % (path, lineno, exc)) from None
    return records


def read_instance(path):
    records = _read_records(path, (int, int, float))
    if not records:
        raise FormatError("%s:1: empty instance file" % path)
    n, m, q = records[0]
    try:
        return ProblemInstance(num_ads=n, num_slots=m, quit_prob=q,
                               edges=tuple(records[1:]))
    except InvalidInstanceError as exc:
        raise InvalidInstanceError("%s: %s" % (path, exc)) from None


def write_allocation(alloc, path):
    with open(path, "w") as fh:
        for j, i in alloc.entries:
            fh.write("%d %d\n" % (j, i))


def read_allocation(path, mode=Mode.MATCHING):
    return Allocation(entries=tuple(_read_records(path, (int, int))),
                      mode=mode)
