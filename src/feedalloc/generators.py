"""Seeded instance generators.

Weighting schemes over a complete bipartite graph (symmetric, heavy-top,
heavy-bottom, finely targeted), the adversarial chain instance that defeats
myopic strategies, and two session-model generators that rebuild realistic
feed instances from summary statistics (per-category reward moments, resp. a
category x time-bucket reward table).  Real data files are never read; the
statistics default to documented synthetic values.

All generators are pure functions of their arguments; the PRNG is NumPy's
default_rng with an explicit seed.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import ProblemInstance, _converted


@dataclass
class GeneratorConfig:
    """A scheme and its parameters.  ``q`` reaches the scheme's generator,
    and ``n``, ``m`` and ``seed`` do unless None or not taken (the adversarial
    and session schemes take no n); ``params`` holds its other parameters."""

    scheme: str
    n: int | None = None
    m: int | None = None
    q: float = 0.1
    seed: int = 1
    params: dict = field(default_factory=dict)


def _complete(n, m, q, rewards):
    edges = tuple((i, j, r) for i, row in enumerate(rewards.tolist(), 1)
                  for j, r in enumerate(row, 1))
    return ProblemInstance(num_ads=n, num_slots=m, quit_prob=q, edges=edges)


def gen_symmetric(n=100, m=1000, q=0.1, seed=1, integer=False):
    """Complete bipartite graph, rewards uniform from 1 to 10 (continuous by
    default; ``integer`` switches to the integer-uniform reading)."""
    rng = np.random.default_rng(seed)
    if integer:
        rewards = rng.integers(1, 11, size=(n, m)).astype(float)
    else:
        rewards = rng.uniform(1.0, 10.0, size=(n, m))
    return _complete(n, m, q, rewards)


def gen_asymmetric(n=100, m=1000, q=0.1, seed=1, direction="top"):
    """Position-dependent rewards: w * (m-j)/m for heavy tops or w * j/m for
    heavy bottoms, with w uniform in [1, 10] per edge."""
    if direction not in ("top", "bottom"):
        raise ValueError("direction must be 'top' or 'bottom'")
    rng = np.random.default_rng(seed)
    w = rng.uniform(1.0, 10.0, size=(n, m))
    j = np.arange(1, m + 1, dtype=float)
    factor = (m - j) / m if direction == "top" else j / m
    return _complete(n, m, q, w * factor[None, :])


def gen_finely_targeted(n=100, m=1000, q=0.1, seed=1):
    """Each ad rewards 10 at one uniformly chosen target slot, 1 elsewhere."""
    rng = np.random.default_rng(seed)
    rewards = np.ones((n, m))
    targets = rng.integers(0, m, size=n)
    rewards[np.arange(n), targets] = 10.0
    return _complete(n, m, q, rewards)


def gen_adversarial(m=None, C=None, q=0.5):
    """Chain instance defeating myopic strategies: ad j targets only slot j
    with reward 1 except the last, whose C defaults to 2^(2m-1) (m <= 512)."""
    if m is None:
        raise ValueError("the adversarial scheme needs m")
    if C is None and m > 512:
        raise ValueError("the default C = 2^(2m-1) of the adversarial "
                         "scheme overflows for m > 512; give C")
    C = 2.0 ** (2 * m - 1) if C is None else C
    if m < 2 or C <= 0:
        raise ValueError("need m >= 2 and C > 0")
    edges = tuple((j, j, 1.0 if j < m else float(C)) for j in range(1, m + 1))
    return ProblemInstance(num_ads=m, num_slots=m, quit_prob=q, edges=edges)


def _browse_permutation(categories, p_same, rng):
    """Session order over items: start anywhere; with probability p_same the
    next item is an unseen one of the current category, otherwise an unseen
    item of a different category, falling back to any unseen item."""
    categories = np.asarray(categories)
    m = len(categories)
    unseen = np.ones(m, dtype=bool)
    cur = int(rng.integers(m))
    order = [cur]
    unseen[cur] = False
    for _ in range(m - 1):
        same_mask = categories == categories[cur]
        # each pool ascends, so the draws pick the same items as a set would
        same = np.flatnonzero(unseen & same_mask)
        other = np.flatnonzero(unseen & ~same_mask)
        if rng.random() < p_same:
            pool = same if len(same) else other
        else:
            pool = other if len(other) else same
        cur = int(pool[rng.integers(len(pool))])
        order.append(cur)
        unseen[cur] = False
    return order


def gen_session_youtube(m=200, q=0.1, seed=1, num_categories=8, advertisers=15,
                        p_same=0.5, alpha_match=0.8, alpha_mismatch=0.01,
                        category_stats=None, item_categories=None):
    """Category-labelled video session with one ad per advertiser and
    category.

    ``category_stats`` is a list of (mu, sigma) per category; rewards are
    alpha * |Normal(mu_k, sigma_k)| with k the category of the item before
    the slot, and alpha depending on whether ad and item categories match.
    If no stats are supplied, synthetic defaults are drawn from the seed
    (mu in [50, 500], sigma in [10, 100])."""
    rng = np.random.default_rng(seed)
    if category_stats is None:
        mus = rng.uniform(50.0, 500.0, size=num_categories)
        sigmas = rng.uniform(10.0, 100.0, size=num_categories)
        category_stats = list(zip(mus, sigmas))
    if len(category_stats) != num_categories:
        raise ValueError("need one (mu, sigma) pair per category")
    if item_categories is None:
        item_categories = rng.integers(0, num_categories, size=m)
    item_categories = np.asarray(item_categories)
    order = _browse_permutation(item_categories, p_same, rng)
    slot_cat = item_categories[order]          # category of the item before slot j
    n = advertisers * num_categories
    ad_cat = np.repeat(np.arange(num_categories), advertisers)
    mu = np.array([category_stats[k][0] for k in slot_cat])
    sigma = np.array([category_stats[k][1] for k in slot_cat])
    base = np.abs(rng.normal(mu[None, :], sigma[None, :], size=(n, m)))
    alpha = np.where(ad_cat[:, None] == slot_cat[None, :],
                     alpha_match, alpha_mismatch)
    return _complete(n, m, q, alpha * base)


def gen_session_blocks(m=1440, q=0.1, seed=1, blocks=144, categories=100,
                       slots_per_block=10, reward_table=None):
    """Block-structured day-long session: ``blocks`` advertiser blocks, one
    ad per category in each block, every block attached to
    ``slots_per_block`` distinct random slots.

    Rewards come from a (categories x m) table indexed by (ad category,
    slot time bucket); with no table supplied a synthetic one is drawn
    uniformly from [8.4, 1500] (the reward range this scenario targets).
    Defaults give n = 14400, m = 1440, |E| = 144000."""
    rng = np.random.default_rng(seed)
    if reward_table is None:
        reward_table = rng.uniform(8.4, 1500.0, size=(categories, m))
    reward_table = np.asarray(reward_table, dtype=float)
    if reward_table.shape != (categories, m):
        raise ValueError("reward_table must have shape (categories, m)")
    edges = []
    for h in range(blocks):
        slots = np.sort(rng.choice(m, size=slots_per_block, replace=False))
        js = (slots + 1).tolist()
        for ad, rewards in enumerate(reward_table[:, slots].tolist(),
                                     h * categories + 1):
            edges.extend((ad, j, r) for j, r in zip(js, rewards))
    return ProblemInstance(blocks * categories, m, q, tuple(edges))


# scheme name -> generator; the heavy schemes bind ``direction``
SCHEMES = {"symmetric": gen_symmetric,
           "heavy_top": partial(gen_asymmetric, direction="top"),
           "heavy_bottom": partial(gen_asymmetric, direction="bottom"),
           "finely_targeted": gen_finely_targeted,
           "adversarial": gen_adversarial,
           "session_youtube": gen_session_youtube,
           "session_blocks": gen_session_blocks}

# the schemes whose generator takes the number of ads n
SIZED_SCHEMES = tuple(name for name, gen in SCHEMES.items()
                      if "n" in inspect.signature(gen).parameters)


def generate(config):
    """One call of the config's scheme generator.  An unknown scheme, an
    ``n``, ``m`` or ``seed`` that is not a non-negative integer (equal to
    its ``int()``), or a ``params`` key that is not one of the generator's
    other parameters, is a ValueError."""
    if config.scheme not in SCHEMES:
        raise ValueError("unknown scheme %r (choose from %s)"
                         % (config.scheme, ", ".join(SCHEMES)))
    gen = SCHEMES[config.scheme]
    takes = inspect.signature(gen).parameters
    fixed = ("n", "m", "q", "seed", *getattr(gen, "keywords", ()))
    for key in config.params:
        if key not in takes or key in fixed:
            raise ValueError("scheme %s takes no parameter %r"
                             % (config.scheme, key))
    kwargs = {}
    for key in ("n", "m", "seed"):
        value = getattr(config, key)
        if value is None:
            continue
        if not _converted(int, value) >= 0:    # NaN unless an integer
            raise ValueError("%s must be a non-negative integer, not %r"
                             % (key, value))
        if key in takes:
            kwargs[key] = int(value)
    return gen(q=config.q, **kwargs, **config.params)
