"""The uncapped matcher before it cut each row to its r heaviest edges,
kept as the oracle of ``max_weight_matching``: every positive edge, the
heaviest of parallel ones, enters the assignment."""

import numpy as np

from feedalloc.matching import DUMMY_WEIGHT, _drop_parallel


def unpruned_max_weight_matching(edges):
    """Maximum-weight matching over valid (ad, slot, weight) triples, solved
    on all their positive edges.  Returns (sorted list of (ad, slot), total
    weight)."""
    e = np.asarray(edges, dtype=np.float64).reshape(len(edges), 3)
    e = e[e[:, 2] > 0.0]
    if not len(e):
        return [], 0.0
    e = _drop_parallel(e)

    ads, a = np.unique(e[:, 0].astype(np.int64), return_inverse=True)
    slots, s = np.unique(e[:, 1].astype(np.int64), return_inverse=True)
    w = e[:, 2]
    swap = len(ads) > len(slots)
    row, col = (s, a) if swap else (a, s)
    nr, nc = (len(slots), len(ads)) if swap else (len(ads), len(slots))
    rows = np.arange(nr)

    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    graph = csr_array((np.concatenate([w, np.full(nr, DUMMY_WEIGHT)]),
                       (np.concatenate([row, rows]),
                        np.concatenate([col, nc + rows]))),
                      shape=(nr, nc + nr))
    r, c = min_weight_full_bipartite_matching(graph, maximize=True)
    real = c < nc
    r, c = r[real], c[real]
    total = float(graph[r, c].sum())
    a, s = (c, r) if swap else (r, c)
    return sorted(zip(ads[a].tolist(), slots[s].tolist())), total
