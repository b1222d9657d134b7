"""``decompose`` before it read only the entries after j, kept as its
oracle: ``entry_suffixes`` over every entry, a dict of taus by slot, and one
``in`` test per slot."""

from feedalloc.core import (DecompositionTerm, _suffix_index, checked_pairs,
                            entry_suffixes)


def tau_dict_decompose(inst, alloc, j):
    """The per-slot terms of R_j, from a full pass and a tau dict."""
    pairs = checked_pairs(inst, alloc)
    j = _suffix_index(inst, j)
    q = inst.quit_prob
    s = 1.0 - q
    taus = {slot: r - q * f
            for (slot, r), f in zip(pairs, entry_suffixes(pairs, q))}
    return [DecompositionTerm(slot=jp, occupied=jp in taus,
                              tau=taus.get(jp, 0.0), discount=s ** (jp - j))
            for jp in range(j + 1, inst.num_slots + 1)]
