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

Pruning without a cap.  No matching has more than r = min(#ads, #slots)
pairs, so step (2) with k = r holds for the rows, the smaller side.  Each
row keeps the edges at least as heavy as its r-th heaviest, ties included,
found by one partition per row of a dense rows x columns table (zero where
there is no edge).  The cut runs only when r*r < |E|, so that it can drop
an edge, and the table holds at most 2|E| weights.

Prefix.  Steps (1)-(2) first run on a prefix: the edges at least as heavy
as the t-th heaviest, t = PREFIX * (2k(k-1) + 1), found by one partition
and kept in input order.  An edge's rank in its slot or ad counts only the
heavier edges and its tied predecessors there, and all of them are in the
prefix, the ties at the threshold too, so every prefix edge keeps its rank
and (1)-(2) keep exactly the full run's survivors of weight >= the
threshold, each heavier than any other survivor.  If at least 2k(k-1) + 1
of them survive, (3) returns the full run's edges in the same order;
otherwise (1)-(2) run once more, on all edges.

Ties.  The total weight is optimal.  Which of several tied optima is
returned is unspecified, but it is deterministic for a given input and
SciPy version.

SciPy is imported on first use, so ``import feedalloc`` does not load it.
"""

from __future__ import annotations

import numpy as np

from .core import _converted

DUMMY_WEIGHT = 5e-324
PREFIX = 32     # a capped call first prunes the PREFIX * (2k(k-1)+1) heaviest


def _keep_top(e, k):
    """Steps 1-2 of the pruning: each slot's k heaviest edges, then each
    ad's k heaviest of those (stable on ties), in input order."""
    for col in (1, 0):
        order = np.lexsort((-e[:, 2], e[:, col]))
        g = e[order, col]
        rank = np.arange(len(g)) - np.searchsorted(g, g)
        e = e[np.sort(order[rank < k])]
    return e


def _drop_parallel(e):
    """All but the heaviest row of each (slot, ad) pair, in input order."""
    ds = np.diff(e[:, 1])
    if np.all((ds > 0) | ((ds == 0) & (np.diff(e[:, 0]) > 0))):
        return e        # the pairs strictly ascend, so none repeats
    order = np.lexsort((-e[:, 2], e[:, 0], e[:, 1]))
    return e[np.sort(order[np.r_[True, np.diff(e[order, :2], axis=0).any(1)]])]


def _solve(edges, k=None):
    e = np.asarray(edges, dtype=np.float64).reshape(len(edges), 3)
    x = e[:, :2].T.copy()   # ads, then slots; NaN fails both tests
    bad = np.flatnonzero(~((abs(x) < 2.0 ** 53) & (x == np.trunc(x))).all(0))
    if bad.size:    # float64 may have rounded 2**53 + 1 onto 2**53
        raise ValueError("edge %r: ad and slot must be below 2**53 in "
                         "magnitude and integers" % (edges[bad[0]],))
    bad = np.flatnonzero(~(np.isfinite(e[:, 2]) & (e[:, 2] >= 0.0)))
    if bad.size:
        i, j, _w = e[bad[0]]
        raise ValueError("weight of edge (%d, %d) must be finite and >= 0"
                         % (i, j))
    e = np.compress(e[:, 2] > 0.0, e, 0)    # faster than a mask index
    if k == 0 or not len(e):
        return [], 0.0
    # the heaviest of parallel edges, then the pruning steps under a cap
    e = _drop_parallel(e)
    if k is not None:
        need = 2 * k * (k - 1) + 1
        t = PREFIX * need   # steps 1-2 first on the edges >= the t-th heaviest
        top = e
        if t < len(e):
            top = np.compress(e[:, 2] >= np.partition(e[:, 2], -t)[-t], e, 0)
        p = _keep_top(top, k)
        if len(p) < need and len(top) < len(e):
            p = _keep_top(e, k)     # the prefix fell short: all edges
        e = p[np.argsort(-p[:, 2], kind="stable")[:need]]

    ads, a = np.unique(e[:, 0].astype(np.int64), return_inverse=True)
    slots, s = np.unique(e[:, 1].astype(np.int64), return_inverse=True)
    w = e[:, 2]
    swap = len(ads) > len(slots)
    row, col = (s, a) if swap else (a, s)
    nr, nc = (len(slots), len(ads)) if swap else (len(ads), len(slots))
    if k is None and nr * nr < len(w) and nr * nc <= 2 * len(w):
        # each row's nr heaviest edges, ties kept: pruning without a cap
        table = np.zeros((nr, nc))
        table[row, col] = w
        keep = w >= np.partition(table, nc - nr, axis=1)[row, nc - nr]
        row, col, w = row[keep], col[keep], w[keep]
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
    (ad, slot, weight) triples, ad and slot integers below 2**53 in
    magnitude, weights finite and >= 0, and ``k >= 0`` equal to its ``int()``.
    Returns (sorted list of (ad, slot), total weight)."""
    if _converted(int, k) != k:     # NaN unless k equals its int()
        raise ValueError("cap k = %r must be an integer" % (k,))
    if k < 0:
        raise ValueError("cap k = %r must be >= 0" % (k,))
    return _solve(edges, int(k))


def max_weight_matching(edges):
    """Maximum-weight matching over (ad, slot, weight) triples as above, with
    no size cap.  Returns (sorted list of (ad, slot), total weight)."""
    return _solve(edges)
