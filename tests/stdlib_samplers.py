"""The seeded samplers and the tree builder as they stood when they called
the stdlib: random.randrange and random.sample draw each in-degree, subset
and parent, and Graph checks every edge.  The tests compare graphforge's
in-place draws with these, seed by seed."""

from __future__ import annotations

import random
from math import ceil, comb, log

from graphforge.graphs import Graph, _check_edge_cap
from graphforge.randomness import Binomial, Uniform, _coin_threshold
from graphforge.trees import ParentVector


def sample_branch(size: int, k: int) -> str:
    """Which branch CPython 3.11's random.sample takes: "pool" when a list
    of the population is smaller than a set of k picks, else "set"."""
    setsize = 21 if k <= 5 else 21 + 4 ** ceil(log(k * 3, 4))
    return "pool" if size <= setsize else "set"


def _draw_in_degree(dist, rng: random.Random, t: int) -> int:
    if isinstance(dist, Uniform):
        return rng.randrange(t)
    if isinstance(dist, Binomial):
        threshold = _coin_threshold(dist.p)
        return sum(rng.random() < threshold for _ in range(t - 1))
    raise ValueError(f"unknown in-degree distribution: {dist!r}")


def sample_vertex_addition(n: int, dist, seed: int, calls: list | None = None) -> Graph:
    """`calls`, when given, gets (population size, k) of every random.sample
    call, so a test can tell which of sample's branches its seeds reached."""
    if n < 1:
        raise ValueError("process needs at least one vertex")
    _check_edge_cap(comb(max(n, 0), 2), f"a {n}-vertex sample")
    rng = random.Random(seed)
    edges = []
    for t in range(2, n + 1):
        k = _draw_in_degree(dist, rng, t)
        if k:
            if calls is not None:
                calls.append((t - 1, k))
            for i in rng.sample(range(1, t), k):
                edges.append((i, t))
    return Graph(n, frozenset(edges))


def sample_ua_parents(n: int, seed: int) -> ParentVector:
    if n < 1:
        raise ValueError("need at least one vertex")
    _check_edge_cap(n - 1, f"a {n}-vertex tree")
    rng = random.Random(seed)
    return ParentVector(n, tuple(rng.randrange(1, t) for t in range(2, n + 1)))


def build_tree_from_instructions(pv: ParentVector) -> Graph:
    return Graph(pv.n, frozenset((pv.parents[t - 2], t) for t in range(2, pv.n + 1)))
