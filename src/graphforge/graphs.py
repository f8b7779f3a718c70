"""Core graph value type and exact small-graph algorithms.

Graphs are simple, undirected, and immutable.  Vertices are the integers
1..n in construction order; an edge is a pair (i, j) with i < j.  Everything
here is sized for exhaustive desk-scale verification (n up to about 12), not
for large instances: isomorphism is a backtracking search, and one exact
partition-refinement search gives the canonical form and |Aut|.

A graph has two indexes, each built on first use and then kept (`_lazy`).
`Graph.rows` is the adjacency: rows[v] is the neighbour bitmask of v (bit u
set when u ~ v), rows[0] == 0; every algorithm that reads adjacency reads
it.  A row is as wide as v's largest neighbour, so on a sparse graph it
takes about n^2/16 bytes.  `Graph.lex_edges`, which JSON and DOT output
read, is the edges in lexicographic order: one stable sort by first endpoint
of the edges listed by second endpoint, in the order a machine run, the
tree builder or the vertex-addition sampler made them (`_graph_by_second`),
or else sorted so.

Two facts are computed by deliberately independent routes so they can be
cross-checked: graph isomorphism (backtracking on adjacency) versus canonical
form equality (refinement search), and threshold recognition by vertex
elimination versus the induced-subgraph characterisation (no induced P4, C4,
or 2K2).
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations
from math import comb, factorial, isqrt
from operator import attrgetter, itemgetter

# Every size bound in graphforge, by name: each entry point reads its entry
# when called, before any work, and formats its error message from it.
LIMITS = {
    "exact_n": 12,  # canonical search and |Aut|, isomorphism backtracking, Monte-Carlo draws
    "class_law_n": 7,  # the class law pushes every class through 2^(n-1) attach sets; copy sets take n!
    "labelled_trees_n": 7,  # Pruefer enumeration decodes all n^(n-2) codes
    "enumeration_n": 12,  # every walk of 2^n strings per rule: each verify check and reachability helper
    "modifiable_n": 7,  # the same walks under the modifiable model: up to 4^n (string, choice) runs per rule
    "walk_k": 6,  # cached copy tables, read by every labelled-copy question, hold k! copies each
    "build_edges": 1 << 20,  # edges one machine run, sample or constructor may build
    "matrix_bits": 1 << 24,  # matrix output writes one character per vertex pair
    "cost_a_n": 65_536,  # a(n) and its closed form step a binomial of about n bits n times
}


def _check_int(n) -> None:
    if type(n) is not int:  # a bool is not
        raise ValueError(f"need an int n, got {n!r}")


def _check_limit(name: str, n: int, message: str, low: int | None = None) -> None:
    """The one size gate: refuse an n that is not an int, then raise
    `message`, its {limit} and {n} filled in, unless n <= LIMITS[name]
    (and n >= low, when low is given)."""
    _check_int(n)
    limit = LIMITS[name]
    if n > limit or (low is not None and n < low):
        raise ValueError(message.format(limit=limit, n=n))


def _check_edge_cap(worst: int, what: str) -> None:
    """Refuse, before any work, what may build more than LIMITS["build_edges"] edges."""
    limit = LIMITS["build_edges"]
    if worst > limit:
        raise ValueError(f"{what} may build {worst} edges; limit {limit}")


class _Value:
    """Immutable value whose annotations are its fields, like a frozen dataclass: it
    compares by them and hashes by those not in `_unhashed`. Each subclass writes its __init__."""

    def __init_subclass__(cls) -> None:
        def get(names):  # obj -> the tuple of its fields `names`; attrgetter gives a bare value for one
            if len(names) == 1:
                return lambda obj, name=names[0]: (getattr(obj, name),)
            return attrgetter(*names) if names else lambda obj: ()
        fields = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        key, hash_key = get(fields), get([f for f in fields if f not in getattr(cls, "_unhashed", ())])
        cls.__eq__ = lambda self, other: key(self) == key(other) if other.__class__ is cls else NotImplemented
        cls.__hash__ = lambda self: hash(hash_key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


class _lazy:
    """functools.cached_property without the lock it takes on every first
    read before Python 3.12: the value goes into the instance dict."""

    def __init__(self, build) -> None:
        self.build, self.name, self.__doc__ = build, build.__name__, build.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.build(obj)
        return value


class Graph(_Value):
    """Immutable simple graph on vertices 1..n with edges (i, j), i < j."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]) -> None:
        if type(n) is not int or type(edges) is not frozenset:
            raise ValueError(f"need an int n and frozenset edges, got {n!r} and {type(edges).__name__}")
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        try:
            bad = next((f"({i}, {j})" for i, j in edges
                        if type(i) is not int or type(j) is not int or not (1 <= i < j <= n)), None)
        except (TypeError, ValueError):  # an edge that does not unpack into a pair
            bad = next(repr(e) for e in edges if type(e) is not tuple or len(e) != 2)
        if bad is not None:
            raise ValueError(f"edge {bad} invalid for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Graph":
        """Build a graph from unordered vertex pairs, normalising each pair."""
        edges = set()
        for a, b in pairs:
            if a == b:
                raise ValueError(f"loop ({a}, {b}) not allowed")
            edges.add((a, b) if a < b else (b, a))
        return cls(n, frozenset(edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        """The edges in lexicographic order, a new list on every call."""
        return list(self.lex_edges)

    @_lazy
    def lex_edges(self) -> tuple[tuple[int, int], ...]:
        """The edges in lexicographic order. Sorts on int keys skip the tuple
        comparisons of sorted(self.edges), which cost more on large graphs."""
        by_second = self.__dict__.pop("_by_second", None) or sorted(self.edges, key=itemgetter(1))
        return tuple(sorted(by_second, key=itemgetter(0)))

    def has_edge(self, a: int, b: int) -> bool:
        return ((a, b) if a < b else (b, a)) in self.edges

    @_lazy
    def rows(self) -> tuple[int, ...]:
        """The adjacency index: rows[v] is the neighbour bitmask of v
        (rows[0] == 0), built from `edges` on first use and then kept."""
        rows = [0] * (self.n + 1)
        for i, j in self.edges:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return tuple(rows)

    def neighbors(self, v: int) -> set[int]:
        return set(_vertices(self.rows[v])) if 0 < v <= self.n else set()

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count() if 0 < v <= self.n else 0

    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees sorted descending."""
        return tuple(sorted((r.bit_count() for r in self.rows[1:]), reverse=True))


def _unchecked(cls, **fields):
    """An instance of the value type `cls` with its fields set as given,
    built without __init__ and so without its checks. Only for values the
    program made itself and knows valid; public constructors check."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _graph_by_second(n: int, edges: tuple[tuple[int, int], ...]) -> Graph:
    """The unchecked graph on 1..n with `edges`, a tuple that lists them by
    second endpoint and is kept until `lex_edges` reads it. Set one by one,
    the fields stay out of a per-instance dict, as Graph() keeps them."""
    g = object.__new__(Graph)
    for name, value in (("n", n), ("edges", frozenset(edges)), ("_by_second", edges)):
        object.__setattr__(g, name, value)
    return g


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def complete_graph(n: int) -> Graph:
    _check_edge_cap(comb(max(n, 0), 2), f"K{n}")
    return Graph(n, frozenset((i, j) for i in range(1, n) for j in range(i + 1, n + 1)))


def path_graph(n: int) -> Graph:
    """Path on vertices 1..n in order; P1 is a single vertex."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    _check_edge_cap(n - 1, f"P{n}")
    return Graph(n, frozenset((t, t + 1) for t in range(1, n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    _check_edge_cap(n, f"C{n}")
    edges = {(t, t + 1) for t in range(1, n)}
    edges.add((1, n))
    return Graph(n, frozenset(edges))


def complete_bipartite(l: int, m: int) -> Graph:
    """K_{l,m} with parts 1..l and l+1..l+m."""
    if min(l, m) < 0:
        raise ValueError(f"complete bipartite parts must be nonnegative, got {l} and {m}")
    _check_edge_cap(l * m, f"K{l},{m}")
    return Graph(l + m, frozenset((i, l + j) for i in range(1, l + 1) for j in range(1, m + 1)))


def complete_split(l: int, m: int) -> Graph:
    """Join of a clique on 1..l with an independent set on l+1..l+m."""
    return join(complete_graph(l), empty_graph(m))


def linear_forest(lengths) -> Graph:
    """Disjoint union of paths with the given component sizes, in order."""
    g = empty_graph(0)
    for r in lengths:
        g = disjoint_union(g, path_graph(r))
    return g


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def add_vertex(g: Graph, attach) -> Graph:
    """Add vertex n+1 adjacent to exactly the vertices in `attach`."""
    attach = set(attach)
    for v in attach:
        if not (1 <= v <= g.n):
            raise ValueError(f"attachment vertex {v} outside 1..{g.n}")
    new = g.n + 1
    _check_edge_cap(len(g.edges) + len(attach), f"adding vertex {new} to a {len(g.edges)}-edge graph")
    return Graph(new, g.edges | frozenset((v, new) for v in attach))


def remove_last_vertex(g: Graph) -> Graph:
    """Delete vertex n; inverse of add_vertex for the final vertex."""
    if g.n == 0:
        raise ValueError("cannot remove a vertex from the empty graph")
    return Graph(g.n - 1, frozenset(e for e in g.edges if g.n not in e))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    _check_edge_cap(len(g.edges) + len(h.edges), f"a disjoint union of {g.n} and {h.n} vertices")
    shift = g.n
    edges = set(g.edges)
    edges.update((i + shift, j + shift) for i, j in h.edges)
    return Graph(g.n + h.n, frozenset(edges))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides."""
    _check_edge_cap(len(g.edges) + len(h.edges) + g.n * h.n, f"a join of {g.n} and {h.n} vertices")
    shift = g.n
    base = disjoint_union(g, h)
    cross = {(i, shift + j) for i in range(1, g.n + 1) for j in range(1, h.n + 1)}
    return Graph(base.n, base.edges | cross)


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Induced subgraph on `vertices`, relabelled 1..k preserving order."""
    vs = sorted(set(vertices))
    for v in vs:
        if not (1 <= v <= g.n):
            raise ValueError(f"vertex {v} outside 1..{g.n}")
    index = {v: p + 1 for p, v in enumerate(vs)}
    edges = frozenset((index[i], index[j]) for i, j in g.edges if i in index and j in index)
    return _unchecked(Graph, n=len(vs), edges=edges)


def relabel(g: Graph, perm: dict[int, int]) -> Graph:
    """Apply a vertex permutation {old: new}; must be a bijection on 1..n."""
    if sorted(perm) != list(range(1, g.n + 1)) or sorted(perm.values()) != list(range(1, g.n + 1)):
        raise ValueError("perm must be a bijection on 1..n")
    return Graph.from_pairs(g.n, ((perm[i], perm[j]) for i, j in g.edges))


# ---------------------------------------------------------------------------
# bitmask internals
# ---------------------------------------------------------------------------
# Vertex sets are masks with bit v for vertex v, like the rows of `Graph.rows`.
# A labelled graph is packed into an edge mask in colex order: dyad (i, j),
# i < j, sits at bit C(j-1, 2) + i-1.  Vertex t's back-edges are then one
# block of t-1 bits starting at C(t-1, 2), and the graph induced on vertices
# 1..a is the mask's low C(a, 2) bits.  Other modules read the layout from
# `_columns` and compute no bit position of their own.

def _vertices(mask: int) -> list[int]:
    """The vertices in a vertex mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _columns(n: int) -> list[tuple[int, list[int]]]:
    """(t, bits) for t = 2..n: bits[v - 1] is the mask bit of the dyad (v, t)."""
    return [(t, [1 << (comb(t - 1, 2) + i) for i in range(t - 1)]) for t in range(2, n + 1)]


def _labeled_copy_masks(g: Graph) -> set[int]:
    """Edge masks of all distinct labelled graphs isomorphic to g, one per
    relabelling class: the loop runs over all n! permutations."""
    n = g.n
    column = [[]] + [bits for _, bits in _columns(n)]  # column[y][x]: the dyad (x+1, y+1), x < y
    bit = [[column[max(x, y)][min(x, y)] if x != y else 0 for y in range(n)] for x in range(n)]
    base = [(i - 1, j - 1) for i, j in g.edges]
    masks: set[int] = set()
    for perm in permutations(range(n)):
        m = 0
        for a, b in base:
            m |= bit[perm[a]][perm[b]]
        masks.add(m)
    return masks


# ---------------------------------------------------------------------------
# isomorphism (backtracking route)
# ---------------------------------------------------------------------------

def _signatures(g: Graph) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Per-vertex invariant: the degree, then the sorted neighbour degrees."""
    degs = [r.bit_count() for r in g.rows]
    return {
        v: (degs[v], tuple(sorted(degs[u] for u in _vertices(g.rows[v]))))
        for v in range(1, g.n + 1)
    }


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test by backtracking vertex assignment."""
    if g.n != h.n:
        return False
    _check_limit("exact_n", g.n, "isomorphism supported for n <= {limit}, got {n}")
    if len(g.edges) != len(h.edges):
        return False
    if g.edges == h.edges:
        return True
    if g.degree_sequence() != h.degree_sequence():
        return False
    sig_g = _signatures(g)
    sig_h = _signatures(h)
    if sorted(sig_g.values()) != sorted(sig_h.values()):
        return False
    n = g.n
    rows_g = g.rows
    rows_h = h.rows
    # Assign scarce signatures first to prune early.
    mult = Counter(sig_g.values())
    order = sorted(range(1, n + 1), key=lambda v: (mult[sig_g[v]], -g.degree(v)))
    candidates = {v: [u for u in range(1, n + 1) if sig_h[u] == sig_g[v]] for v in order}
    image = {}
    used = set()

    def extend(k: int) -> bool:
        if k == n:
            return True
        v = order[k]
        rv = rows_g[v]
        for u in candidates[v]:
            if u in used:
                continue
            for w, fw in image.items():
                if rv >> w & 1 != rows_h[u] >> fw & 1:
                    break
            else:
                image[v] = u
                used.add(u)
                if extend(k + 1):
                    return True
                used.discard(u)
                del image[v]
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# canonical form (refinement route)
# ---------------------------------------------------------------------------
# Certificate: b"<n>:<bits>" where <bits> is the lexicographically least
# upper-triangle adjacency string over the vertex orderings visited by an
# individualisation-refinement search.  The visited set is closed under
# isomorphism, so the certificate is equal exactly for isomorphic graphs.
# Leaves are compared as C(n,2)-bit numbers, which order like the strings.
# The leaves equal to the best leaf are its images under Aut, one per
# automorphism, all visited as the search prunes nothing by symmetry.  A twin
# step stands for all |W|! orderings of its cell W, so |Aut| counts those
# leaves, each weighted by the product of |W|! over its path's twin cells.


def canonical_form(g: Graph) -> bytes:
    _check_limit("exact_n", g.n, "canonical form supported for n <= {limit}, got {n}")
    n = g.n
    if n <= 1:
        return f"{n}:".encode()
    return _certify(n, g.rows)[0]


def automorphism_count(g: Graph) -> int:
    """Number of adjacency-preserving permutations of 1..n."""
    _check_limit("exact_n", g.n, "automorphism counting supported for n <= {limit}")
    return _certify(g.n, g.rows)[1] if g.n > 1 else 1


@lru_cache(maxsize=1 << 14)
def _certify(n: int, rows: tuple[int, ...]) -> tuple[bytes, int]:
    """(certificate, |Aut|) of the graph with these rows, n >= 2, kept for
    2^14 graphs (about 13 MB at n = 12); the class law does not use it."""
    leaf, aut = _canon_search(n, rows)
    return f"{n}:{leaf}".encode(), aut


def _refine(
    rows: tuple[int, ...], cells: list[tuple[int, ...]], quiet: frozenset
) -> list[tuple[int, ...]]:
    """Equitable refinement; splits are ordered by neighbour count, so the
    resulting ordered partition is invariant under vertex relabelling.
    Each pass splits every cell by the first cell that splits anything. A
    cell that split nothing in a coarser partition splits nothing in a
    finer one, so such cells, and those in `quiet`, are not tried again."""
    quiet = set(quiet)
    while len(cells) < len(rows) - 1:
        for splitter in cells:
            if splitter in quiet:
                continue
            quiet.add(splitter)
            smask = 0
            for v in splitter:
                smask |= 1 << v
            new_cells: list[tuple[int, ...]] = []
            split = False
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                buckets: dict[int, list[int]] = {}
                for v in cell:
                    buckets.setdefault((rows[v] & smask).bit_count(), []).append(v)
                if len(buckets) == 1:
                    new_cells.append(cell)
                else:
                    split = True
                    for k in sorted(buckets):
                        new_cells.append(tuple(buckets[k]))
            if split:
                cells = new_cells
                break
        else:
            break
    return cells


def _pairwise_twins(rows: tuple[int, ...], cell: tuple[int, ...]) -> bool:
    """True when every pair in the cell are twins: their neighbourhoods
    agree outside the pair. Swapping twins is an automorphism, and being
    twins is an equivalence, so each vertex is compared with the first."""
    a = cell[0]
    for b in cell[1:]:
        outside = ~((1 << a) | (1 << b))
        if rows[a] & outside != rows[b] & outside:
            return False
    return True


def _twin_classes(rows: tuple[int, ...], n: int) -> list[list[int]]:
    """The twin classes of vertices 1..n, each ascending, ordered by least
    vertex."""
    classes: list[list[int]] = []
    for v in range(1, n + 1):
        for c in classes:
            if _pairwise_twins(rows, (c[0], v)):
                c.append(v)
                break
        else:
            classes.append([v])
    return classes


def _canon_search(n: int, rows: tuple[int, ...]) -> tuple[str, int]:
    """The best leaf as a C(n,2)-bit string, and |Aut|."""
    best = 1 << comb(n, 2)  # above every C(n,2)-bit leaf
    count = 0

    def search(cells: list[tuple[int, ...]], quiet: frozenset, weight: int) -> None:
        nonlocal best, count
        cells = _refine(rows, cells, quiet)
        idx = 0
        while idx < len(cells):
            cell = cells[idx]
            if len(cell) == 1:
                idx += 1
            elif _pairwise_twins(rows, cell):
                # Individualising a twin in an equitable partition splits
                # nothing, so the twin cell becomes singletons in cell
                # order and the partition stays equitable.
                cells = cells[:idx] + [(v,) for v in cell] + cells[idx + 1 :]
                idx += len(cell)
                weight *= factorial(len(cell))
            else:
                break
        else:
            order = [c[0] for c in cells]
            leaf = 0
            for p, v in enumerate(order):
                rv = rows[v]
                for u in order[p + 1 :]:
                    leaf = leaf << 1 | (rv >> u & 1)
            if leaf < best:
                best, count = leaf, weight
            elif leaf == best:
                count += weight
            return
        # an equitable partition's cells split nothing in any child
        quiet = frozenset(cells)
        for v in cell:
            rest = tuple(u for u in cell if u != v)
            search(cells[:idx] + [(v,), rest] + cells[idx + 1 :], quiet, weight)

    search([tuple(range(1, n + 1))], frozenset(), 1)
    return format(best, f"0{comb(n, 2)}b"), count


def _attach_sets(classes: list[list[int]]) -> list[tuple[int, int]]:
    """(attach mask, multiplicity) pairs, ascending by mask: one attach set
    per count of vertices taken from each twin class, made of each class's
    smallest vertices. Vertex v is bit v - 1; the multiplicity is the number
    of attach sets with the same counts, each giving an isomorphic child,
    and the set made of smallest vertices has the least mask among them."""
    sets = [(0, 1)]
    for c in classes:
        takes = [(0, 1)]
        for k, v in enumerate(c, 1):
            takes.append((takes[-1][0] | 1 << (v - 1), comb(len(c), k)))
        sets = [(m | t, w * u) for m, w in sets for t, u in takes]
    return sorted(sets)


@lru_cache(maxsize=None)
def _class_law(n: int) -> dict[bytes, tuple[Graph, Fraction]]:
    """The uniform vertex-addition law on n vertices: certificate -> (first
    representative found, exact probability).  The process treats every
    labelling alike, so the law at n is the law at n - 1 pushed through each
    attach set of vertex n, a k-set with probability 1/(n * C(n-1, k)).
    Attach sets that differ by swapping twins of the parent give isomorphic
    children of equal mass, so one set per twin-class count is searched,
    weighted by how many sets it stands for.  It is the least mask among
    them, and masks ascend, so each class keeps the first representative
    and the place in the law that it would have if every set were searched.
    A child is certified from its rows; only a first representative is built."""
    if n <= 1:
        g = empty_graph(n)
        return {canonical_form(g): (g, Fraction(1))}
    law: dict[bytes, tuple[Graph, Fraction]] = {}
    for g, p in _class_law(n - 1).values():
        for attach_mask, copies in _attach_sets(_twin_classes(g.rows, n - 1)):
            attach = attach_mask << 1
            rows = tuple(r | (attach >> v & 1) << n for v, r in enumerate(g.rows)) + (attach,)
            key = f"{n}:{_canon_search(n, rows)[0]}".encode()
            rep, q = law.get(key) or (
                _unchecked(Graph, n=n, edges=g.edges | {(v, n) for v in _vertices(attach)}), 0
            )
            law[key] = (rep, q + p * copies / (n * comb(n - 1, attach_mask.bit_count())))
    return law


def enumerate_graph_classes(n: int) -> list[Graph]:
    """One representative per isomorphism class on exactly n vertices,
    generated by extending smaller representatives one vertex at a time.
    Deterministic order (sorted by canonical certificate)."""
    _check_limit("class_law_n", n, "class enumeration supported for 0 <= n <= {limit}", low=0)
    law = _class_law(n)
    return [law[key][0] for key in sorted(law)]


# ---------------------------------------------------------------------------
# induced-subgraph containment
# ---------------------------------------------------------------------------

# The walk reads an ascending vertex tuple as vertices 1, 2, ... of an edge
# mask, so a prefix of a vertices is dropped as soon as its C(a, 2) bits match
# the low bits of no table mask.

@lru_cache(maxsize=256)
def _copy_levels(h: Graph) -> tuple[frozenset[int], ...]:
    """levels[a] (a = 0..k) holds the edge masks of h's labelled copies on
    k = |V(h)| vertices, restricted to vertices 1..a, so levels[k] is the
    copy set.  Reached only through _copy_table: 256 tables hold all 208
    classes on 1..6 vertices, at most 0.1 MB each."""
    full = _labeled_copy_masks(h)
    lows = ((1 << comb(a, 2)) - 1 for a in range(h.n + 1))
    return tuple(frozenset(c & low for c in full) for low in lows)


def _copy_table(h: Graph) -> tuple[frozenset[int], ...] | None:
    """h's cached copy table up to LIMITS["walk_k"] vertices, else None: the
    one rule by which every labelled-copy question chooses its route."""
    return _copy_levels(h) if h.n <= LIMITS["walk_k"] else None


def _induces_mask_in(g: Graph, levels: tuple[frozenset[int], ...]) -> bool:
    """True when some ascending k-tuple of g's vertices induces an edge mask
    in levels[k], k = len(levels) - 1.  Prefixes are extended one vertex at
    a time, depth first, and dropped when not in their level."""
    k = len(levels) - 1
    rows = g.rows
    n = g.n

    def extend(mask: int, chosen: tuple[int, ...], low: int) -> bool:
        a = len(chosen)
        allowed = levels[a + 1]
        first = 1 << (a * (a - 1) // 2)
        for v in range(low, n - k + a + 2):
            rv = rows[v]
            m = mask
            bit = first
            for u in chosen:
                if rv >> u & 1:
                    m |= bit
                bit <<= 1
            if m in allowed and (a + 1 == k or extend(m, chosen + (v,), v + 1)):
                return True
        return False

    return extend(0, (), 1)


def contains_induced(g: Graph, h: Graph) -> bool:
    """True when some vertex subset of g induces a copy of h."""
    k = h.n
    if k > g.n:
        return False
    if k == 0:
        return True
    _check_limit("exact_n", k, "isomorphism supported for n <= {limit}, got {n}")
    _check_limit("exact_n", g.n, "induced-subgraph search supported for hosts with n <= {limit}, got {n}")
    if (levels := _copy_table(h)) is not None:
        return _induces_mask_in(g, levels)
    return any(is_isomorphic(induced_subgraph(g, s), h) for s in combinations(range(1, g.n + 1), k))


# ---------------------------------------------------------------------------
# threshold recognition (two independent routes)
# ---------------------------------------------------------------------------

def is_threshold(g: Graph) -> bool:
    """Elimination route: repeatedly delete an isolated or dominating vertex;
    the graph is threshold exactly when this empties it."""
    rows = g.rows
    alive = (1 << (g.n + 1)) - 2
    while alive:
        full = alive.bit_count() - 1
        for v in _vertices(alive):
            if (rows[v] & alive).bit_count() in (0, full):
                break
        else:
            return False
        alive ^= 1 << v
    return True


def is_threshold_by_forbidden(g: Graph) -> bool:
    """Characterisation route: no induced P4, C4, or 2K2, which are the
    4-vertex graphs with edges ab and cd and non-edges ac and bd. So g is
    threshold when no edge ab has a non-neighbour c of a adjacent to a
    non-neighbour d of b; swapping a and b swaps c and d, so each edge is
    tried one way round."""
    _check_limit("exact_n", g.n, "forbidden-subgraph threshold test supported for n <= {limit}, got {n}")
    rows = g.rows
    everyone = (1 << (g.n + 1)) - 2
    far = [everyone & ~(r | 1 << v) for v, r in enumerate(rows)]
    beyond = [0] * len(rows)
    for a in range(1, g.n + 1):
        for c in _vertices(far[a]):
            beyond[a] |= rows[c]
    return not any(beyond[a] & far[b] for a, b in g.edges)


# ---------------------------------------------------------------------------
# connectivity helpers
# ---------------------------------------------------------------------------

def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the components, each sorted, ordered by least vertex."""
    rows = g.rows
    unseen = (1 << (g.n + 1)) - 2
    out = []
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = rows[low.bit_length() - 1] & ~comp
            comp |= new
            frontier |= new
        unseen &= ~comp
        out.append(tuple(_vertices(comp)))
    return out


def _tree_adjacency(g: Graph) -> tuple[list[list[int]], dict[int, int]] | None:
    """When g is a tree, each vertex's neighbours (index 0 unused) and each
    vertex's neighbour toward vertex 1 (0 for vertex 1), the latter keyed in
    the order a search from vertex 1 finds them, each after its parent; else
    None. A tree has n - 1 edges and the search reaches every vertex. Built
    from `edges` alone, so a large sparse tree never builds its rows."""
    n = g.n
    if n < 1 or len(g.edges) != n - 1:
        return None
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    parent = {1: 0}
    stack = [1]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                stack.append(w)
    return (adj, parent) if len(parent) == n else None


def is_tree(g: Graph) -> bool:
    """Connected and acyclic (single-vertex graphs count; E_0 does not)."""
    return _tree_adjacency(g) is not None


def is_linear_forest(g: Graph) -> bool:
    """Every component is a path (isolated vertices are paths of size 1)."""
    if any(g.degree(v) > 2 for v in range(1, g.n + 1)):
        return False
    return g.edge_count == g.n - len(connected_components(g))


# ---------------------------------------------------------------------------
# serialization (all byte-deterministic)
# ---------------------------------------------------------------------------

def _json_text(obj) -> str:
    """The one JSON writer: sorted keys, no spaces. Every caller hands it a
    fresh tree, which cannot refer to itself, so the circular-reference check,
    which records every container it enters, is skipped: same bytes, less time."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


def _json_value(g: Graph) -> dict:
    """The JSON object of g with its edges the tuple `lex_edges`: json.dumps
    writes a tuple as an array, so it prints the same bytes without copying
    the index or building a list per edge."""
    return {"n": g.n, "edges": g.lex_edges}


def to_json_obj(g: Graph) -> dict:
    obj = _json_value(g)
    obj["edges"] = [list(e) for e in obj["edges"]]
    return obj


def to_json(g: Graph) -> str:
    return _json_text(_json_value(g))


def from_json_obj(obj: dict) -> Graph:
    try:
        n, pairs = obj["n"], [(a, b) for a, b in obj["edges"]]
        for v in (n, *chain.from_iterable(pairs)):
            if type(v) is not int:
                raise TypeError(f"{v!r} is not an integer")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph object: {exc}") from exc
    return Graph.from_pairs(n, pairs)


def from_json(text: str) -> Graph:
    return from_json_obj(json.loads(text))


def to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(1, g.n + 1))
    lines.extend(f"  {i} -- {j};" for i, j in g.lex_edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_bitstring(g: Graph) -> str:
    """Upper-triangle adjacency bits, row-major; empty string for n <= 1."""
    n = g.n
    if comb(n, 2) > (bits := LIMITS["matrix_bits"]):
        largest = (1 + isqrt(1 + 8 * bits)) // 2  # the largest n with C(n,2) <= bits
        raise ValueError(f"matrix output supports C(n,2) <= {bits} bits (n <= {largest}), got n={n}")
    # Bits i+1..n of row i, lowest first: the row shifted and reversed.
    return "".join(format(g.rows[i] >> (i + 1), f"0{n - i}b")[::-1] for i in range(1, n))
