"""Facet-based immutable simplicial complexes.

A complex is described by the antichain of its maximal faces (facets).
Vertex labels are arbitrary hashable values, in practice ints or
strings; they are mapped to dense integer ids in order of first
appearance, and all public output is translated back to labels.  A
simplex appears in the public API as a tuple of labels, internally as a
tuple of strictly increasing ids.  Face enumeration is sorted
lexicographically by id tuple, which makes every derived quantity
deterministic for a fixed input order.

The empty complex is representable: it has no vertices, its only face
is the empty simplex, and its dimension is -1.  It arises as the full
subcomplex on an empty vertex set and as the link of a facet, and it
behaves as the neutral element for joins.  Constructing it directly
through ``from_facets`` is rejected, since an empty facet file is far
more often a mistake than a request for the empty complex.

Instances are immutable; derived data (skeleta, pseudomanifold reports,
homology profiles) is memoized on the instance.

``_links(i)`` reads the link facets of every i-face from one pass over
the facets; the CLI's ``links``, ``verify-local``, ``bistellar_moves``
and the small-link certificate take their links from it.  ``link`` and
``apply_bistellar_move`` read one face's from ``_link_facets``.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict

from .errors import (
    DimensionError,
    FacetInputError,
    MissingSimplexError,
    NotPseudomanifoldError,
    VertexSetError,
    _record,
)

# Public simplices are tuples of vertex labels.
Simplex = tuple


def _antichain(id_facets):
    """Reduce a family of id tuples to its maximal elements.

    Input tuples must be sorted.  Output is lexicographically sorted and
    duplicate free.  The empty tuple survives only if it is the sole
    member, matching the convention for the empty complex.

    Facets are taken longest first, one length at a time, and a facet is
    tested only against the longer kept facets through its rarest
    vertex: any kept facet containing it passes through that vertex.
    Facets of equal length never contain one another, so a pure family
    makes no subset test at all.
    """
    by_len = defaultdict(set)
    for f in id_facets:
        by_len[len(f)].add(f)
    kept = []
    through = {}  # vertex -> the kept longer facets through it, as sets
    for n in sorted(by_len, reverse=True):
        group = by_len[n]
        if kept:
            for g in kept[-1]:
                gs = frozenset(g)
                for v in g:
                    through.setdefault(v, []).append(gs)
            # the empty tuple lies in any kept facet
            group = [f for f in group if f and not _inside(f, through)]
        kept.append(group)
    return tuple(sorted(f for group in kept for f in group))


def _inside(f, through):
    # Whether the id tuple f lies in one of the sets indexed by ``through``.
    rarest = min((through.get(v, ()) for v in f), key=len)
    fs = frozenset(f)
    return any(fs <= g for g in rarest)


def _memoized(method):
    """Memoize a zero-argument accessor of a complex on the instance, through ``_memo``."""
    key = method.__qualname__

    @functools.wraps(method)
    def cached(self):
        return self._memo(key, method, self)

    return cached


def _faces(id_facets, i):
    # All i-faces as sorted id tuples, lexicographically sorted.
    if i == -1:
        return ((),)
    seen = set()
    for f in id_facets:
        if len(f) >= i + 1:
            seen.update(itertools.combinations(f, i + 1))
    return tuple(sorted(seen))


@_record
class PseudomanifoldReport:
    """Outcome of the closed-pseudomanifold check, one flag per condition."""

    dimension: int
    pure: bool
    ridge_degree_two: bool
    strongly_connected: bool

    @property
    def is_closed_pseudomanifold(self) -> bool:
        return self.pure and self.ridge_degree_two and self.strongly_connected

    def as_dict(self):
        return {
            "dimension": self.dimension,
            "pure": self.pure,
            "ridge_degree_two": self.ridge_degree_two,
            "strongly_connected": self.strongly_connected,
            "is_closed_pseudomanifold": self.is_closed_pseudomanifold,
        }


def _find(parent, x):
    """Root of x in the union-find forest ``parent``, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class SimplicialComplex:
    """Immutable simplicial complex, constructed via :func:`from_facets`."""

    __slots__ = ("labels", "dimension", "_id_of", "_id_facets", "_facet_sets", "_cache")

    def __init__(self, labels, id_facets):
        # Trusted constructor: labels is a tuple, id_facets a sorted
        # antichain of sorted id tuples ( ((),) encodes the empty complex ).
        self.labels = labels
        self._id_of = {lab: i for i, lab in enumerate(labels)}
        self._id_facets = id_facets
        self._facet_sets = tuple(frozenset(f) for f in id_facets)
        self.dimension = max((len(f) - 1 for f in id_facets), default=-1)
        self._cache = {}

    def _memo(self, key, fn, *args):
        """``fn(*args)``, memoized on the instance under ``key``.

        Every derived value of a complex is cached here, directly or
        through ``_memoized``; a hit costs one dict lookup.
        """
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = fn(*args)
            return value

    # -- basic accessors -------------------------------------------------

    @property
    def vertices(self):
        """Vertex labels in id order (first appearance order)."""
        return self.labels

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    @_memoized
    def facets(self):
        """Facets as label tuples, sorted by id tuple."""
        return tuple(self._to_labels(f) for f in self._id_facets)

    def _to_labels(self, sids):
        return tuple(self.labels[i] for i in sids)

    def _simplex_ids(self, simplex, error_cls=MissingSimplexError):
        ids = []
        for lab in simplex:
            i = self._id_of.get(lab)
            if i is None:
                raise error_cls(f"vertex {lab!r} is not in the complex")
            ids.append(i)
        t = tuple(sorted(ids))
        if len(set(t)) != len(t):
            raise error_cls(f"repeated vertex in simplex {tuple(simplex)!r}")
        return t

    def _vertex_ids(self, vertex_set):
        ids = set()
        for lab in vertex_set:
            i = self._id_of.get(lab)
            if i is None:
                raise VertexSetError(f"vertex {lab!r} is not in the complex")
            ids.add(i)
        return ids

    def _ifaces(self, i):
        """All i-faces as sorted id tuples, lexicographically sorted."""
        return self._memo(("ifaces", i), _faces, self._id_facets, i)

    def faces(self, i):
        """Every i-face exactly once, as label tuples in id order.

        i = -1 yields the empty simplex.  Out-of-range dimensions raise
        DimensionError rather than returning an empty list, so a typo in
        the dimension argument fails loudly.
        """
        if not -1 <= i <= self.dimension:
            raise DimensionError(
                f"face dimension {i} out of range for a {self.dimension}-complex"
            )
        return tuple(self._to_labels(f) for f in self._ifaces(i))

    def f_vector(self):
        """(f_0, ..., f_dim); the empty complex has the empty f-vector."""
        return tuple(len(self._ifaces(i)) for i in range(self.dimension + 1))

    def has_simplex(self, simplex) -> bool:
        try:
            sids = self._simplex_ids(simplex)
        except MissingSimplexError:
            return False
        fs = frozenset(sids)
        return any(fs <= f for f in self._facet_sets)

    # -- derived complexes -----------------------------------------------

    def _link_facets(self, sids):
        """The link facets F - sigma of the face ``sids``, sorted as a ``_links`` list.

        Empty when sigma is not a face.
        """
        fs = frozenset(sids)
        facets = zip(self._id_facets, self._facet_sets)
        return [tuple(v for v in f if v not in fs) for f, s in facets if fs <= s]

    def _links(self, i):
        """Every i-face mapped to its link's facets, as id tuples F - sigma.

        One pass over the facets, nothing memoized.  Each list is sorted
        and an antichain, as the facets are, so ``_compact`` of it is
        ``link(sigma)``.  Removing sigma keeps the order of facets F < G
        containing it: where they first differ, F's vertex is not in G, so
        not in sigma, and only G - sigma ending there, a prefix of F - sigma,
        could put it first; then G would lie in F, which an antichain rules
        out.  For a sorted F the (i+1)-subsets in lex order pair with
        their complements in reverse lex order.
        """
        links = defaultdict(list)
        for f in self._id_facets:
            n = len(f)
            if n > i:
                rests = list(itertools.combinations(f, n - i - 1))
                rests.reverse()
                for s, rest in zip(itertools.combinations(f, i + 1), rests):
                    links[s].append(rest)
        return links

    def link(self, simplex):
        """The link of a face: all tau with tau ∩ sigma = ∅, tau ∪ sigma ∈ K.

        The link of a facet is the empty complex; the link of the empty
        simplex is the complex itself.
        """
        facets = self._link_facets(self._simplex_ids(simplex))
        if not facets:
            raise MissingSimplexError(f"{tuple(simplex)!r} is not a face")
        return _compact(self.labels, facets)

    def full_subcomplex(self, vertex_set):
        """All faces whose vertices lie inside the given vertex set."""
        vids = self._vertex_ids(vertex_set)
        return _compact(
            self.labels, _antichain([tuple(v for v in f if v in vids) for f in self._id_facets])
        )

    def join(self, other):
        """Simplicial join; label sets must be disjoint.

        The empty complex is the neutral element.  ``other``'s ids are
        shifted past ``self``'s, so each facet-wise union is sorted, and
        the unions of two sorted antichains on disjoint id ranges, taken
        in order, are again a sorted antichain.
        """
        overlap = set(self.labels) & set(other.labels)
        if overlap:
            raise VertexSetError(f"join operands share vertex labels: {sorted(map(repr, overlap))}")
        n = len(self.labels)
        shifted = [tuple(v + n for v in g) for g in other._id_facets]
        facets = [f + g for f in self._id_facets for g in shifted]
        return _compact(self.labels + other.labels, facets)

    # -- global structure -------------------------------------------------

    @_memoized
    def is_connected(self) -> bool:
        """Connectivity through shared vertices (equivalently, edge paths)."""
        n = self.n_vertices
        parent = list(range(n))
        for f in self._id_facets:
            for a, b in zip(f, f[1:]):
                parent[_find(parent, a)] = _find(parent, b)
        return len({_find(parent, v) for v in range(n)}) <= 1

    def is_closed_pseudomanifold(self) -> PseudomanifoldReport:
        """Check purity, ridge degree 2, and strong connectivity.

        Results are reported, not raised: callers that require a closed
        pseudomanifold inspect the report.  Requires dimension >= 1.  The
        report comes from ``_ridge_walk``, which also gives orientability
        and the top boundary map's spanning tree.
        """
        return self._ridge_walk()[0]

    def is_orientable(self) -> bool:
        """Can the facets be signed so that each ridge gets opposite orientations?

        Only defined for closed pseudomanifolds; the answer is read off
        ``_ridge_walk``, the same ridge walk that gives the
        pseudomanifold report and homology its top boundary map.
        """
        report, orientable, _ = self._ridge_walk()
        if not report.is_closed_pseudomanifold:
            raise NotPseudomanifoldError("orientability needs a closed pseudomanifold")
        return orientable

    @_memoized
    def _ridge_walk(self):
        """``(report, orientable, tree)`` from one walk over the ridges of the top facets.

        The top facets and their ridges form the dual graph.  A union-find
        with a parity bit per top facet joins the facets on each ridge.
        ``tree`` lists the ridges that joined two components, so the top
        facets are strongly connected iff it has one ridge fewer than
        there are top facets; in a closed pseudomanifold it is a spanning
        tree of the dual graph.  A ridge whose facets are already joined
        with the wrong parity proves the complex non-orientable; the
        orientability means nothing unless the complex is a closed
        pseudomanifold.  A (d-1)-face that lies in no top facet is itself
        a facet with d vertices, so ridge degree 2 means: no such facet,
        and every ridge of a top facet lies in exactly two top facets.
        """
        d = self.dimension
        if d < 1:
            raise DimensionError("pseudomanifold check needs a complex of dimension >= 1")
        top = [f for f in self._id_facets if len(f) == d + 1]
        # Node 2*idx + b: "facet idx has sign (-1)^b", so the low bit is the
        # parity and path halving carries it.  The ridge omitting f[p] has
        # sign (-1)^p in f: node a is "f induces +", so b must induce -.
        # Only tree ridges join, so each component is mirrored by the one
        # holding the opposite nodes: a facet already joined to b's facet
        # has a in the component of b (wrong parity) or of b ^ 1.
        parent = list(range(2 * len(top)))
        ridge_ok = not any(len(f) == d for f in self._id_facets)
        first = {}  # ridge -> node of its first facet, stored as ~node once a second one meets it
        orientable = True
        tree = []
        for idx, f in enumerate(top):
            for j, ridge in enumerate(itertools.combinations(f, d)):
                a = 2 * idx + ((d - j) & 1)  # combinations omits f[d], f[d-1], ..., f[0]
                b = first.setdefault(ridge, a)
                if b == a:
                    continue
                if b < 0:
                    ridge_ok, b = False, ~b
                else:
                    first[ridge] = ~b
                ra, rb = _find(parent, a), _find(parent, b)
                if ra == rb:
                    orientable = False
                    continue
                rb1 = _find(parent, b ^ 1)
                if ra != rb1:
                    parent[ra] = rb1
                    parent[_find(parent, a ^ 1)] = rb
                    tree.append(ridge)
        report = PseudomanifoldReport(
            dimension=d,
            pure=len(top) == len(self._id_facets),
            ridge_degree_two=ridge_ok and all(b < 0 for b in first.values()),
            strongly_connected=len(tree) == len(top) - 1,
        )
        return report, orientable, tree

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._label_facet_key() == other._label_facet_key()

    def __hash__(self):
        return hash(self._label_facet_key())

    @_memoized
    def _label_facet_key(self):
        return frozenset(frozenset(f) for f in self.facets)

    def __repr__(self):
        return f"SimplicialComplex(dim={self.dimension}, f={self.f_vector()})"


def from_facets(facets):
    """Build a complex from an iterable of facets (iterables of labels).

    Non-maximal and duplicate entries are dropped.  Vertex ids are
    assigned by first appearance, scanning facets in input order.
    """
    facet_list = [tuple(f) for f in facets]
    if not facet_list:
        raise FacetInputError("empty facet list does not describe a complex")
    id_of = {}
    id_facets = []
    for f in facet_list:
        if not f:
            raise FacetInputError("empty facet")
        ids = []
        for lab in f:
            if lab not in id_of:
                id_of[lab] = len(id_of)
            ids.append(id_of[lab])
        t = tuple(sorted(ids))
        if len(set(t)) != len(t):
            raise FacetInputError(f"facet {f!r} repeats a vertex")
        id_facets.append(t)
    labels = tuple(sorted(id_of, key=id_of.get))
    return SimplicialComplex(labels, _antichain(id_facets))


def _compact(labels, id_facets):
    """Complex on the facets ``id_facets``, ids indexing ``labels``.

    ``id_facets`` must be a sorted antichain of sorted id tuples, as
    links and ``_links`` lists are; other input goes through
    ``_antichain`` first.  Only the labels some facet uses are kept,
    renumbered in id order.  No facets, or only the empty one, give the
    empty complex.
    """
    facets = tuple(id_facets) or ((),)
    used = sorted({v for f in facets for v in f})
    remap = {v: j for j, v in enumerate(used)}
    # remap is increasing, so the antichain's lexicographic order survives
    return SimplicialComplex(
        tuple(labels[v] for v in used), tuple(tuple(remap[v] for v in f) for f in facets)
    )

