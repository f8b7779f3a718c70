"""Random and instruction-driven tree growth.

The uniform attachment process grows a tree one vertex at a time: vertex t
picks its single neighbour uniformly among 1..t-1.  Every tree it can emit
is a recursive tree (labels increase along every path from the root, vertex
1), and every recursive tree occurs with probability 1/(n-1)!, so the
likelihood of a tree shape is the number of its recursive labellings over
(n-1)!, which has a closed form (`ua_likelihood_exact`).

The same parent-per-vertex data doubles as a deterministic instruction
stream: the parent of vertex t fits in b(t-1) = floor(log2(t-1)) + 1 bits,
so a tree on n vertices costs sum_{t=1}^{n-1} b(t) instruction bits (and the
same amount of memory to hold the indices), which is O(n log n).

Pruefer coding is included as the classical bijection between labelled trees
and sequences; jointly with the enumeration helpers it drives the exhaustive
tests.  Convention: repeatedly remove the smallest-labelled leaf and record
its neighbour.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from itertools import product
from math import factorial, prod

from .graphs import (
    Graph,
    automorphism_count,
    enumerate_graph_classes,
    is_tree,
    _check_edge_cap,
    _check_int,
    _check_limit,
    _graph_by_second,
    _tree_adjacency,
    _unchecked,
    _Value,
)
from .machines import ResourceCost
from .randomness import _count_copies, _randbelow, _ua_masks


class ParentVector(_Value):
    """parents[k] is the parent of vertex k+2; vertex 1 is the root."""

    n: int
    parents: tuple[int, ...]

    def __init__(self, n: int, parents: tuple[int, ...]) -> None:
        if type(n) is not int:
            raise ValueError(f"vertex count must be an int, got {n!r}")
        if n < 1:
            raise ValueError("need at least one vertex")
        if type(parents) is not tuple:
            raise ValueError(f"parents must be a tuple, got {type(parents).__name__}")
        if len(parents) != n - 1:
            raise ValueError(f"need parents for vertices 2..{n}")
        for t, p in enumerate(parents, start=2):
            if type(p) is not int:
                raise ValueError(f"parent of vertex {t} must be an int, got {p!r}")
            if not (1 <= p < t):
                raise ValueError(f"parent of vertex {t} must lie in 1..{t - 1}, got {p}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "parents", parents)

    def parent(self, t: int) -> int:
        if not (2 <= t <= self.n):
            raise ValueError(f"vertex {t} has no parent entry")
        return self.parents[t - 2]

    def to_json_array(self) -> list[int | None]:
        """1-indexed array form: entries 0 and 1 are unused (null)."""
        return [None, None, *self.parents]


def build_tree_from_instructions(pv: ParentVector) -> Graph:
    """Realize the parent vector, whose parents are checked: vertex t
    attaches to parent(t)."""
    return _graph_by_second(pv.n, tuple(zip(pv.parents, range(2, pv.n + 1))))


def sample_ua_parents(n: int, seed: int) -> ParentVector:
    """Uniform attachment: the parent of vertex t is rng.randrange(1, t)."""
    _check_int(n)
    if n < 1:
        raise ValueError("need at least one vertex")
    _check_edge_cap(n - 1, f"a {n}-vertex tree")
    getrandbits = random.Random(seed).getrandbits
    parents = tuple(_randbelow(getrandbits, t - 1) + 1 for t in range(2, n + 1))
    return _unchecked(ParentVector, n=n, parents=parents)


def sample_ua(n: int, seed: int) -> Graph:
    """One uniform-attachment tree on n vertices."""
    return build_tree_from_instructions(sample_ua_parents(n, seed))


def is_recursive_tree(g: Graph) -> bool:
    """True when g is a tree whose labels increase along every path from
    vertex 1.  Equivalently, every vertex t >= 2 has exactly one smaller
    neighbour, i.e. the larger endpoints of the edges are 2..n, each once:
    then g has n - 1 edges and smaller neighbours lead every vertex to 1,
    and in a recursive tree the parent is the only smaller neighbour, since
    children carry larger labels.  Reads only the edge set, in O(m log m)."""
    return g.n >= 1 and sorted(j for _, j in g.edges) == list(range(2, g.n + 1))


def root_path(g: Graph, v: int) -> tuple[int, ...]:
    """The unique path from vertex 1 to v in a tree, endpoints included."""
    tree = _tree_adjacency(g)
    if tree is None:
        raise ValueError("root paths are defined for trees only")
    if not (1 <= v <= g.n):
        raise ValueError(f"vertex {v} outside 1..{g.n}")
    parent = tree[1]
    path = [v]
    while path[-1] != 1:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def leaves(g: Graph) -> tuple[int, ...]:
    """Degree-1 vertices in increasing order, with degrees counted from the
    edges."""
    degree = [0] * (g.n + 1)
    for i, j in g.edges:
        degree[i] += 1
        degree[j] += 1
    return tuple(v for v in range(1, g.n + 1) if degree[v] == 1)


# ---------------------------------------------------------------------------
# Pruefer coding
# ---------------------------------------------------------------------------

def prufer_encode(g: Graph) -> tuple[int, ...]:
    """Length n-2 code: remove the smallest leaf, record its neighbour."""
    if g.n < 2:
        raise ValueError("encoding needs at least two vertices")
    tree = _tree_adjacency(g)
    if tree is None:
        raise ValueError("only trees have a code")
    adj = [set(nbs) for nbs in tree[0]]
    heap = [v for v in range(1, g.n + 1) if len(adj[v]) == 1]  # ascending: a heap
    code = []
    for _ in range(g.n - 2):
        leaf = heapq.heappop(heap)
        nb = adj[leaf].pop()
        code.append(nb)
        adj[nb].discard(leaf)
        if len(adj[nb]) == 1:
            heapq.heappush(heap, nb)
    return tuple(code)


def prufer_decode(code) -> Graph:
    """Inverse of prufer_encode; a code of length k yields a tree on k+2
    vertices."""
    code = tuple(code)
    n = len(code) + 2
    for entry in code:
        if not (1 <= entry <= n):
            raise ValueError(f"code entry {entry} outside 1..{n}")
    remaining = [0] * (n + 1)
    for entry in code:
        remaining[entry] += 1
    heap = [v for v in range(1, n + 1) if remaining[v] == 0]
    heapq.heapify(heap)
    edges = []
    for entry in code:
        leaf = heapq.heappop(heap)
        edges.append((leaf, entry) if leaf < entry else (entry, leaf))
        remaining[entry] -= 1
        if remaining[entry] == 0:
            heapq.heappush(heap, entry)
    a = heapq.heappop(heap)
    b = heapq.heappop(heap)
    edges.append((a, b) if a < b else (b, a))
    return Graph(n, frozenset(edges))


# ---------------------------------------------------------------------------
# likelihood under uniform attachment
# ---------------------------------------------------------------------------

def ua_likelihood_exact(t_graph: Graph) -> Fraction:
    """Probability that uniform attachment on n vertices produces a tree
    isomorphic to t_graph: its recursive labellings over (n-1)!.  Rooted at
    r, it has R(r) = n!/prod_v |T_v| increasing labellings (hook lengths,
    T_v the subtree below v); moving the root from p to its child c
    multiplies R by |T_c|/(n - |T_c|).  Each recursive labelled copy is
    |Aut| of these labellings, so P = sum_r R(r) / (|Aut| (n-1)!)."""
    tree = _tree_adjacency(t_graph)
    if tree is None:
        raise ValueError("likelihood under uniform attachment needs a tree")
    n = t_graph.n
    _check_limit("exact_n", n, "exact tree likelihood supported for n <= {limit}")
    parent = tree[1]
    size = dict.fromkeys(parent, 1)  # |T_v| with the tree rooted at vertex 1
    below_root = list(parent)[1:]
    for v in reversed(below_root):
        size[parent[v]] += size[v]
    rooted = {1: factorial(n) // prod(size.values())}
    for v in below_root:
        rooted[v] = rooted[parent[v]] * size[v] // (n - size[v])
    return Fraction(sum(rooted.values()), automorphism_count(t_graph) * factorial(n - 1))


def tree_positivity_check(t_graph: Graph, samples: int, seed: int) -> tuple[int, float]:
    """Count uniform-attachment samples isomorphic to t_graph: each draw
    goes straight into an edge mask (`randomness._ua_masks`, the draws of
    `sample_ua_parents`) and the hit loop that likelihood_mc shares counts
    the copies.  Any tree shape has positive likelihood, so enough samples
    should always score hits.  The size bound is checked before any draw."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if not is_tree(t_graph):
        raise ValueError("positivity check needs a tree")
    n = t_graph.n
    _check_limit("exact_n", n, "positivity check supported for n <= {limit}, got {n}")
    hits = _count_copies(t_graph, _ua_masks(n, samples, random.Random(seed)))
    return hits, hits / samples


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_labeled_trees(n: int) -> list[Graph]:
    """All labelled trees on n vertices (n^(n-2) of them) via Pruefer codes."""
    _check_limit("labelled_trees_n", n, "labelled-tree enumeration supported for 1 <= n <= {limit}",
                 low=1)
    if n == 1:
        return [Graph(1, frozenset())]
    return [prufer_decode(code) for code in product(range(1, n + 1), repeat=n - 2)]


def enumerate_tree_classes(n: int) -> list[Graph]:
    """One representative per tree isomorphism class on n vertices, sorted by
    canonical certificate: the tree classes among all graph classes."""
    _check_limit("class_law_n", n, "tree class enumeration supported for 1 <= n <= {limit}", low=1)
    return [g for g in enumerate_graph_classes(n) if is_tree(g)]


# ---------------------------------------------------------------------------
# instruction-bit accounting
# ---------------------------------------------------------------------------

def index_bits(k: int) -> int:
    """b(k) = floor(log2 k) + 1, the fixed width holding a value in 1..k."""
    if k < 1:
        raise ValueError("width defined for k >= 1")
    return k.bit_length()


def tree_cost(n: int) -> ResourceCost:
    """Deterministic-construction cost of an n-vertex tree: the parent of
    vertex t is shipped and stored in b(t-1) bits, and no randomness is
    spent.  The sum of b(t) over t = 1..m, m = n - 1, is (m + 1) * L - 2^L + 1
    with L = b(m): L bits per value, less one per power 2^j (j < L) above it."""
    if n < 1:
        raise ValueError("need at least one vertex")
    m = n - 1
    width = m.bit_length()
    total = (m + 1) * width - (1 << width) + 1
    return ResourceCost(instruction_bits=total, memory_bits=total, random_bits=0)


def encode_parent_bits(pv: ParentVector) -> str:
    """Concatenate (parent(t) - 1) as a big-endian b(t-1)-bit field for
    t = 2..n; total length is tree_cost(n).instruction_bits."""
    chunks = []
    for t in range(2, pv.n + 1):
        width = index_bits(t - 1)
        chunks.append(format(pv.parent(t) - 1, f"0{width}b"))
    return "".join(chunks)


def decode_parent_bits(bits: str, n: int) -> ParentVector:
    """Inverse of encode_parent_bits for a known vertex count."""
    if any(ch not in "01" for ch in bits):
        raise ValueError("bit stream must be over 0/1")
    parents = []
    at = 0
    for t in range(2, n + 1):
        width = index_bits(t - 1)
        field = bits[at : at + width]
        if len(field) < width:
            raise ValueError(f"bit stream too short for vertex {t}")
        value = int(field, 2) + 1
        if value >= t:
            raise ValueError(f"parent field {field!r} decodes outside 1..{t - 1}")
        parents.append(value)
        at += width
    if at != len(bits):
        raise ValueError(f"{len(bits) - at} trailing bits after vertex {n}")
    return ParentVector(n, tuple(parents))
