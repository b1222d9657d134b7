"""Exact maximum-weight bipartite matching, optionally capped at k pairs.

Both functions reduce the matching to a full rectangular assignment and
solve it with SciPy's sparse Jonker-Volgenant solver LAPJVsp
(``scipy.sparse.csgraph.min_weight_full_bipartite_matching``; Jonker &
Volgenant 1987, Computing 38).

Reduction.  Only edges of positive weight enter, so zero-weight edges are
never forced; of parallel edges, equal in (slot, ad) compared exactly, only
the heaviest is kept, a step skipped when the pairs strictly ascend, as an
instance's static weights do.  The smaller side of the remaining graph becomes
the rows.  Each row gets a private dummy column of weight 5e-324 (the solver
drops explicit zeros), so a full assignment always exists and a row on its
dummy is left unmatched.  A cap k below the row count r adds r - k shared
dummy columns of weight 1 + sum(w): each outweighs all real edges together, so
an optimum fills every shared dummy and leaves at most k rows on real edges.

Pruning under a cap.  Before the dummies are added the edges are cut to
(1) each slot's k heaviest, (2) each ad's k heaviest of those, and (3) the
2k(k-1) + 1 heaviest of what is left.  No step loses an optimum.  In (1),
if an optimum uses a dropped edge at slot j, its other <= k-1 pairs use at
most k-1 ads, so one of slot j's k kept edges goes to a free ad; it is at
least as heavy and can replace the dropped edge.  (2) is the same argument
per ad.  After (2) every vertex has degree <= k, so the other <= k-1 pairs
of an optimum touch at most 2k(k-1) edges; a kept edge of (3) that is free
of them replaces any dropped edge at no loss.

Ties.  The total weight is optimal.  Which of several tied optima is
returned is unspecified, but it is deterministic for a given input and
SciPy version.

SciPy is imported on first use, so ``import feedalloc`` does not load it.
"""

from __future__ import annotations

import numpy as np

DUMMY_WEIGHT = 5e-324


def _keep_top(group, w, k):
    """Mask of the k heaviest edges within each group (stable on ties)."""
    order = np.lexsort((-w, group))
    g = group[order]
    rank = np.arange(len(g)) - np.searchsorted(g, g)
    keep = np.zeros(len(g), dtype=bool)
    keep[order[rank < k]] = True
    return keep


def _drop_parallel(e):
    """All but the heaviest row of each (slot, ad) pair, in input order."""
    ds = np.diff(e[:, 1])
    if np.all((ds > 0) | ((ds == 0) & (np.diff(e[:, 0]) > 0))):
        return e        # the pairs strictly ascend, so none repeats
    order = np.lexsort((-e[:, 2], e[:, 0], e[:, 1]))
    return e[np.sort(order[np.r_[True, np.diff(e[order, :2], axis=0).any(1)]])]


def _solve(edges, k=None):
    e = np.asarray(edges, dtype=np.float64).reshape(len(edges), 3)
    big = np.flatnonzero((e[:, 0] >= 2.0 ** 53) | (e[:, 1] >= 2.0 ** 53))
    if big.size:    # float64 may have rounded them onto other indices
        raise ValueError("edge %r: ad and slot must be below 2**53"
                         % (edges[big[0]],))
    bad = np.flatnonzero(~(np.isfinite(e[:, 2]) & (e[:, 2] >= 0.0)))
    if bad.size:
        i, j, _w = e[bad[0]]
        raise ValueError("weight of edge (%d, %d) must be finite and >= 0"
                         % (i, j))
    e = e[e[:, 2] > 0.0]
    if (k is not None and k <= 0) or not len(e):
        return [], 0.0
    # the heaviest of parallel edges, then the pruning steps under a cap
    e = _drop_parallel(e)
    if k is not None:
        e = e[_keep_top(e[:, 1], e[:, 2], k)]
        e = e[_keep_top(e[:, 0], e[:, 2], k)]
        e = e[np.argsort(-e[:, 2], kind="stable")[:2 * k * (k - 1) + 1]]

    ads, a = np.unique(e[:, 0].astype(np.int64), return_inverse=True)
    slots, s = np.unique(e[:, 1].astype(np.int64), return_inverse=True)
    w = e[:, 2]
    swap = len(ads) > len(slots)
    row, col = (s, a) if swap else (a, s)
    nr, nc = (len(slots), len(ads)) if swap else (len(ads), len(slots))
    shared = 0 if k is None else max(nr - k, 0)
    rows = np.arange(nr)
    graph_row = np.concatenate([row, rows, np.repeat(rows, shared)])
    graph_col = np.concatenate([col, nc + rows,
                                np.tile(nc + nr + np.arange(shared), nr)])
    data = np.concatenate([w, np.full(nr, DUMMY_WEIGHT),
                           np.full(nr * shared, 1.0 + w.sum())])

    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    graph = csr_array((data, (graph_row, graph_col)),
                      shape=(nr, nc + nr + shared))
    r, c = min_weight_full_bipartite_matching(graph, maximize=True)
    real = c < nc
    r, c = r[real], c[real]
    total = float(graph[r, c].sum())
    a, s = (c, r) if swap else (r, c)
    return sorted(zip(ads[a].tolist(), slots[s].tolist())), total


def constrained_max_weight_matching(edges, k):
    """Maximum-weight matching of at most ``k`` pairs over a sequence of
    (ad, slot, weight) triples, ad and slot below 2**53 and weights
    finite and >= 0.  Returns (sorted list of (ad, slot), total weight)."""
    return _solve(edges, k)


def max_weight_matching(edges):
    """Maximum-weight matching over (ad, slot, weight) triples as above, with
    no size cap.  Returns (sorted list of (ad, slot), total weight)."""
    return _solve(edges)
