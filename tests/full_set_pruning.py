"""The capped matcher before its pruning read a weight prefix, kept as the
oracle of ``constrained_max_weight_matching``: steps 1-3 of the pruning run
over all edges (each slot's k heaviest, then each ad's k heaviest of those,
then the 2k(k-1) + 1 heaviest), and the pruned graph is solved as before."""

import numpy as np

from feedalloc.matching import DUMMY_WEIGHT, _drop_parallel


def _keep_top(group, w, k):
    """Mask of the k heaviest edges within each group (stable on ties)."""
    order = np.lexsort((-w, group))
    g = group[order]
    rank = np.arange(len(g)) - np.searchsorted(g, g)
    keep = np.zeros(len(g), dtype=bool)
    keep[order[rank < k]] = True
    return keep


def full_set_pruning(e, k):
    """Steps 1-3 of the pruning over every row of the (ad, slot, weight)
    array ``e``, free of parallel edges."""
    e = e[_keep_top(e[:, 1], e[:, 2], k)]
    e = e[_keep_top(e[:, 0], e[:, 2], k)]
    return e[np.argsort(-e[:, 2], kind="stable")[:2 * k * (k - 1) + 1]]


def full_set_constrained_matching(edges, k):
    """Maximum-weight matching of at most ``k`` pairs over valid (ad, slot,
    weight) triples, pruned over all edges.  Returns (sorted list of
    (ad, slot), total weight)."""
    e = np.asarray(edges, dtype=np.float64).reshape(len(edges), 3)
    e = e[e[:, 2] > 0.0]
    if k <= 0 or not len(e):
        return [], 0.0
    e = full_set_pruning(_drop_parallel(e), k)

    ads, a = np.unique(e[:, 0].astype(np.int64), return_inverse=True)
    slots, s = np.unique(e[:, 1].astype(np.int64), return_inverse=True)
    w = e[:, 2]
    swap = len(ads) > len(slots)
    row, col = (s, a) if swap else (a, s)
    nr, nc = (len(slots), len(ads)) if swap else (len(ads), len(slots))
    shared = max(nr - k, 0)
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
