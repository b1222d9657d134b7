"""``ProblemInstance``'s construction before it kept one row dict, kept
as the oracle of the new one: it stored the rows in two parallel dicts,
filed the triples into lists, then re-sorted every unsorted row and
rescanned it for repeated pairs, which it named after every other
problem."""

import math
from array import array
from bisect import bisect_left
from itertools import islice
from operator import ge, lt

import numpy as np

from feedalloc.core import InvalidInstanceError, _converted, _triples


def _listed_rows_as_given(rows, n, m):
    """Copies of the rows ``{slot: (ads, rewards)}``, or None unless each is
    valid as given: an ``int`` slot in 1..m, ``int`` ads strictly ascending
    in 1..n, and as many float64 rewards, finite and >= 0."""
    ads_at, rewards_at = {}, {}
    try:
        for j, (ads, rewards) in rows.items():
            ads, rewards = list(ads), np.asarray(rewards)
            if not (type(j) is int and 0 < j <= m and rewards.dtype == float
                    and rewards.shape == (len(ads),)
                    and set(map(type, ads)) == {int} and 0 < ads[0]
                    and ads[-1] <= n and all(map(lt, ads, ads[1:]))
                    and 0.0 <= rewards.min() <= rewards.max() < math.inf):
                return None    # so is an empty row: it has no int ad
            ads_at[j], rewards_at[j] = ads, array("d", rewards.tobytes())
    except (TypeError, ValueError):    # a value that is no pair of sequences
        return None
    return ads_at, rewards_at


class ListedInstance:
    """``ProblemInstance`` as it was built from two parallel row dicts."""

    def __init__(self, num_ads, num_slots, quit_prob, edges=()):
        n, m = _converted(int, num_ads), _converted(int, num_slots)
        q = _converted(float, quit_prob)
        problems = ["%s must be a non-negative integer below 2**53" % name
                    for name, count in (("num_ads", n), ("num_slots", m))
                    if not 0 <= count < 2 ** 53]  # NaN unless an integer
        bad, inf = problems.append, math.inf
        if not 0.0 <= q < 1.0:
            bad("quit_prob out of range [0, 1): %r" % (quit_prob,))
        self.num_ads, self.num_slots, self.quit_prob = n, m, q
        if isinstance(edges, dict):    # rows {slot: (ads, rewards)}
            rows, edges = _listed_rows_as_given(edges, n, m), _triples(edges)
            if rows and not problems:
                self._ads, self._rewards = rows
                return
        ads_at, rewards_at = {}, {}
        try:
            raw_edges = iter(edges)
        except TypeError:
            bad("edges %r: not an iterable of edges" % (edges,))
            raw_edges = ()
        for edge in raw_edges:
            try:
                raw_i, raw_j, raw_r = edge
            except (TypeError, ValueError):
                bad("edge %r: not an (ad, slot, reward) triple" % (edge,))
                continue
            try:
                i, j, r = int(raw_i), int(raw_j), float(raw_r)
                exact = i == raw_i and j == raw_j  # no truncation or parsing
            except (TypeError, ValueError, OverflowError):  # a bad field: NaN
                i, j, r = (_converted(int, raw_i), _converted(int, raw_j),
                           _converted(float, raw_r))
                exact = i == i and j == j    # not NaN: no array is compared
            if not exact:
                bad("edge (%r, %r): non-integer index" % (raw_i, raw_j))
                continue
            if not 1 <= i <= n:
                bad("edge (%d, %d): ad index out of range" % (i, j))
            if not 1 <= j <= m:
                bad("edge (%d, %d): slot index out of range" % (i, j))
            if not (0.0 <= r < inf and r == raw_r):
                bad("edge (%d, %d): reward %r invalid" % (i, j, raw_r))
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
        self._ads, self._rewards = ads_at, rewards_at

    def reward(self, ad, slot):
        """r_{ad, slot}; raises ``KeyError`` if there is no such edge."""
        ads = self._ads.get(slot, ())
        k = bisect_left(ads, ad)
        if k == len(ads) or ads[k] != ad:
            raise KeyError((ad, slot))
        return self._rewards[slot][k]

    def row(self, slot):
        """(ads, rewards) of ``slot``: its ads in increasing index and their
        rewards as an ``array('d')``; ``((), ())`` if none.  Read-only."""
        return self._ads.get(slot, ()), self._rewards.get(slot, ())

    @property
    def edges(self):
        """The edges in (ad, slot) order, rebuilt from the rows each time."""
        return tuple(sorted((i, j, r) for j, ads in self._ads.items()
                            for i, r in zip(ads, self._rewards[j])))
