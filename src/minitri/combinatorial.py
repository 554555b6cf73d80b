"""Combinatoriality certificates plus low-dimension sphere recognizers.

The certificate sweeps the proper links by dimension.  Each level reads
every link's facets from one pass over the facets of the complex
(``SimplicialComplex._links``), as tuples of the complex's vertex ids.
Vertex counts, circles and 2-spheres are read off those tuples.

Levels k = 1 and 2 trust the entry check, which proves K a closed
d-pseudomanifold.  Every facet of K then has d + 1 vertices, so the link
of a (d-k-1)-face sigma is pure of dimension k.  A ridge rho of that link
gives the ridge sigma + rho of K, which lies in exactly two facets of K,
both through sigma; so rho lies in exactly two facets of the link.  A
k = 1 link is therefore a 2-regular graph, and a circle iff one walk
around it covers every edge.  A k = 2 link is a closed 2-pseudomanifold
except perhaps for strong connectivity, and a 2-sphere iff it is
strongly connected and 2V - F = 4 (see ``recognize_2sphere``).  No
pseudomanifold report is built per link.  The recognizers take
arbitrary complexes, so they run the full check.

A higher link must be an integer homology sphere and must fit a 3k
vertex budget, k the link dimension.  It is proved a homology sphere
first by ``homology._attach`` on its id tuples: when that leaves one
facet F outside the contractible B, with every ridge of F in B, the
link's reduced homology is H(F, boundary F), that of a k-sphere.  Only
when it does not is the link built as a complex of its own, for its
homology.  For d >= 3 the budget also holds the complex itself (the
link of the empty simplex) to 3d vertices, so a CERTIFIED complex that
is also a homology sphere is a PL-sphere outright, which is what
``alexander_duality_check`` relies on.

Size violations and homology violations are kept apart on purpose.  An
oversized link only exits the hypothesis of the certification criterion
(INCONCLUSIVE); a link with wrong homology cannot sit inside any
manifold triangulation (REJECTED).
"""

from __future__ import annotations

from .complexes import SimplicialComplex, _compact, _find, _memoized, from_facets
from .errors import DimensionError, HypothesisError, NotPseudomanifoldError, _record
from .homology import _attach, _attached, homology


def recognize_circle(K: SimplicialComplex) -> bool:
    """True iff K is a triangulated circle.

    In dimension 1 a closed pseudomanifold is exactly that: every facet
    an edge, every vertex on two edges, and the edges connected.
    """
    if K.dimension != 1:
        raise DimensionError(f"circle recognition needs dimension 1, got {K.dimension}")
    return K.is_closed_pseudomanifold().is_closed_pseudomanifold


def recognize_2sphere(K: SimplicialComplex) -> bool:
    """True iff K is a triangulated 2-sphere: a closed pseudomanifold with chi = 2.

    In a closed 2-pseudomanifold every edge lies on two triangles, so each
    vertex link is a disjoint union of c_v >= 1 circles.  Splitting every
    pinched vertex into c_v copies gives a closed surface N, connected
    because K is strongly connected, with chi(N) = chi(K) + sum(c_v - 1)
    <= 2.  So chi(K) = 2 forces every c_v = 1, hence N = K, and
    chi(N) = 2 makes N the 2-sphere.  As 3F = 2E, chi = V - F/2.
    """
    if K.dimension != 2:
        raise DimensionError(f"2-sphere recognition needs dimension 2, got {K.dimension}")
    if not K.is_closed_pseudomanifold().is_closed_pseudomanifold:
        return False
    return 2 * K.n_vertices - len(K._id_facets) == 4


def _closed_circle(edges):
    """Whether a 2-regular graph, given by its edges, is one circle.

    Every vertex lies on two edges, so one walk around the circle
    through ``edges[0]`` covers every edge iff the graph is connected.
    """
    nbrs = {}
    for a, b in edges:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    start, cur = edges[0]
    prev, steps = start, 1
    while cur != start:
        x, y = nbrs[cur]
        prev, cur = cur, y if x == prev else x
        steps += 1
    return steps == len(edges)


def _closed_2sphere(triangles, n_vertices):
    """Whether a closed 2-pseudomanifold on ``n_vertices`` vertices is a 2-sphere.

    It is one iff it is strongly connected and chi = V - F/2 = 2, by the
    argument of ``recognize_2sphere``.  Each edge lies on exactly two of
    ``triangles``, so one union-find over the edges joins them.
    """
    if 2 * n_vertices - len(triangles) != 4:
        return False
    parent = list(range(len(triangles)))
    first = {}  # edge -> its first triangle, until the second one meets it
    components = len(triangles)
    for idx, (a, b, c) in enumerate(triangles):
        for edge in ((a, b), (a, c), (b, c)):
            j = first.pop(edge, None)
            if j is None:
                first[edge] = idx
                continue
            ra, rb = _find(parent, idx), _find(parent, j)
            if ra != rb:
                parent[ra] = rb
                components -= 1
    return components == 1


@_record
class LevelSummary:
    """One codimension level of the certificate sweep."""

    sphere_dim: int
    simplices_checked: int
    max_link_vertices: int
    allowed_vertices: int | None
    size_violations: int
    rejections: int
    method: str


@_record
class CombinatorialityCertificate:
    verdict: str  # CERTIFIED | INCONCLUSIVE | REJECTED
    dimension: int
    levels: tuple
    witness: tuple | None
    witness_reason: str | None
    pl_sphere: bool


def _level_test(k):
    """(method, sphere name) for the level of k-dimensional links."""
    if k == 1:
        return "circle recognizer", "circle"
    if k == 2:
        return "2-sphere recognizer", "2-sphere"
    return "homology k-sphere + 3k vertex budget", f"homology {k}-sphere"


def _collapses(rest, inside):
    """Whether ``_attach`` left one facet outside B, with every ridge of it in B.

    B is contractible, so the complex then has the reduced homology of
    (F, boundary F), F the facet left: that of a sphere of F's dimension.
    """
    if len(rest) != 1:
        return False
    f = rest[0]
    return all(f[:j] + f[j + 1 :] in inside for j in range(len(f)))


def _link_is_sphere(K, link, n_vertices, k):
    """Is the link with facets ``link`` (K-id tuples) a k-sphere, by the level's test?

    K must be a closed pseudomanifold, as the certificate's entry check
    proves; see the module docstring for what that gives the link.
    """
    if k == 1:
        return _closed_circle(link)
    if k == 2:
        return _closed_2sphere(link, n_vertices)
    return _collapses(*_attach(link)) or homology(_compact(K.labels, link), reduced=True).is_sphere(k)


def small_link_certificate(K: SimplicialComplex) -> CombinatorialityCertificate:
    """Certify combinatoriality by checking that every link is a small sphere.

    Levels run over link dimension k = 1 .. d-1, one link per (d-k-1)-face.
    A link that is not a k-sphere (by the recognizers for k <= 2, by
    ``_attach``'s collapse or else Z-homology above) cannot occur in a
    manifold: REJECTED.  A k >= 3 link on more than 3k vertices exits the
    criterion's hypothesis: INCONCLUSIVE, outranked by any rejection.
    For d >= 3 a size-only last level holds the whole complex to 3d
    vertices; passing it with the homology of a d-sphere upgrades a
    CERTIFIED complex to a certified PL-sphere.
    """
    if not K.is_closed_pseudomanifold().is_closed_pseudomanifold:
        raise NotPseudomanifoldError("certification needs a closed pseudomanifold")
    d = K.dimension
    levels, rejections, size_hits = [], [], []
    for k in range(1, d):
        method, sphere = _level_test(k)
        allowed = 3 * k if k >= 3 else None
        simplices = K._ifaces(d - k - 1)
        links = K._links(d - k - 1)
        rejected, oversized, max_seen = len(rejections), len(size_hits), 0
        for s in simplices:
            link = links[s]
            nv = len({v for f in link for v in f})
            max_seen = max(max_seen, nv)
            if allowed is not None and nv > allowed:
                size_hits.append((K._to_labels(s), f"link has {nv} vertices, budget {allowed}"))
            if not _link_is_sphere(K, link, nv, k):
                rejections.append((K._to_labels(s), f"link is not a {sphere}"))
        levels.append(
            LevelSummary(
                sphere_dim=k,
                simplices_checked=len(simplices),
                max_link_vertices=max_seen,
                allowed_vertices=allowed,
                size_violations=len(size_hits) - oversized,
                rejections=len(rejections) - rejected,
                method=method,
            )
        )
    if d >= 3:
        nv, allowed = K.n_vertices, 3 * d
        if nv > allowed:
            size_hits.append(((), f"link has {nv} vertices, budget {allowed}"))
        levels.append(
            LevelSummary(
                sphere_dim=d,
                simplices_checked=1,
                max_link_vertices=nv,
                allowed_vertices=allowed,
                size_violations=int(nv > allowed),
                rejections=0,
                method="whole complex: 3d vertex budget",
            )
        )

    if rejections:
        verdict, (witness, reason) = "REJECTED", rejections[0]
    elif size_hits:
        verdict, (witness, reason) = "INCONCLUSIVE", size_hits[0]
    else:
        verdict, witness, reason = "CERTIFIED", None, None
    return CombinatorialityCertificate(
        verdict=verdict,
        dimension=d,
        levels=tuple(levels),
        witness=witness,
        witness_reason=reason,
        pl_sphere=verdict == "CERTIFIED"
        and (_collapses(*_attached(K)) or homology(K, reduced=True).is_sphere(d)),
    )


@_memoized
def certified_sphere(K: SimplicialComplex) -> bool:
    """True when the certificate proves K is a PL-sphere; cached per complex.

    The certificate needs links, so a complex of dimension below 1 is
    never certified.
    """
    if K.dimension < 1:
        return False
    try:
        return small_link_certificate(K).pl_sphere
    except NotPseudomanifoldError:
        return False


# -- bistellar flips -------------------------------------------------------


@_record
class BistellarMove:
    """Replace face * boundary(cofacet) by boundary(face) * cofacet."""

    face: tuple
    cofacet: tuple


def _simplex_boundary_vertices(facets):
    """Sorted vertex ids of the simplex whose boundary ``facets`` are, else None.

    Boundary of the simplex on the vertex set: n distinct (n-1)-sets of n
    vertices are all of them.
    """
    w = sorted({v for f in facets for v in f})
    n = len(w)
    if len(facets) == n and all(len(f) == n - 1 for f in facets):
        return tuple(w)
    return None


def _flip_cofacet(K: SimplicialComplex, link_facets):
    """Labels of the simplex a flip adds at a face with these link facets, or None.

    The flip is legal when the link is the boundary of a simplex that is
    missing from K.  Every facet the flip adds contains that simplex, so
    none of them can already be in K.
    """
    w = _simplex_boundary_vertices(link_facets)
    if w is None:
        return None
    ws = frozenset(w)
    if any(ws <= f for f in K._facet_sets):
        return None
    return K._to_labels(w)


def bistellar_moves(K: SimplicialComplex):
    """All legal flips: faces whose link is the boundary of a missing simplex.

    Moves that would introduce a fresh vertex label are not generated;
    the search only ever shrinks or reshuffles the vertex set.  Faces are
    taken by dimension, in ``faces`` order, each dimension's links read
    from one ``_links`` pass.
    """
    out = []
    for fdim in range(K.dimension):
        links = K._links(fdim)
        for s in K._ifaces(fdim):
            cofacet = _flip_cofacet(K, links[s])
            if cofacet is not None:
                out.append(BistellarMove(face=K._to_labels(s), cofacet=cofacet))
    return out


def apply_bistellar_move(K: SimplicialComplex, move: BistellarMove) -> SimplicialComplex:
    """Carry out one flip, returning the new complex.

    Raises HypothesisError unless the move is one ``bistellar_moves``
    would list: lk(face) must be the boundary of the missing simplex on
    the cofacet's vertices.
    """
    s = set(move.face)
    w = set(move.cofacet)
    if not K.has_simplex(move.face):
        raise HypothesisError(f"move face {move.face!r} is not a simplex")
    legal = _flip_cofacet(K, K._link_facets(K._simplex_ids(move.face)))
    if legal is None or set(legal) != w:
        raise HypothesisError(
            f"link of {move.face!r} is not the boundary of a missing simplex on {move.cofacet!r}"
        )
    kept = [f for f in K.facets if not s <= set(f)]
    by_id = K._id_of.get
    added = [tuple(sorted((s - {x}) | w, key=by_id)) for x in s]
    return from_facets(kept + added)
