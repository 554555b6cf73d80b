"""Reference implementations used only to cross-check the library.

Deliberately slow and structurally different from the shipped code:
recursive gcd-to-corner elimination on Python lists for Smith forms,
determinantal-divisor ratios for small matrices, a bare-hands
fraction-free determinant, dense Gaussian elimination over F_p for
mod-p ranks, homology profiles from one Smith form per whole boundary
map (no clearing, Z_p Betti numbers from ranks mod p rather than by
universal coefficients), antichains that test every pair of members,
full subcomplexes from every face of every facet, links and bistellar
flips from the definitions over every face, joins from label-tuple
products, edge-path presentations that sort every directed triangle
edge to find its generator, both of K and of K/B with B read off the
faces of its facets, closed-pseudomanifold reports that count
top facets over every ridge of the face index, Tietze simplification
that recounts every generator over every relator for each candidate
move, a quotient search that tries every permutation for every
generator and checks relators in the order given, the library's
quotient search with relators checked by composing permutations, and a
small-link certificate that recognizes 2-spheres by rebuilding and
testing every vertex link.  If these and the library ever disagree,
one of them is wrong and the tests should say so loudly.
"""

import random
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

from minitri.combinatorial import CombinatorialityCertificate, LevelSummary
from minitri.complexes import PseudomanifoldReport, from_facets
from minitri.errors import ConnectivityError, DimensionError, NotPseudomanifoldError
from minitri.homology import _attach, boundary_matrix, homology
from minitri.snf import smith_normal_form
from minitri.pi1 import (
    GroupPresentation,
    _canonical_cyclic,
    _cycle_type_representatives,
    _cyclic_reduce,
    _free_reduce,
    _relator_image,
    _substitute,
)


def snf_invariant_factors_naive(matrix):
    """Invariant factors by recursive corner elimination."""
    A = [[int(x) for x in row] for row in matrix]
    out = []
    while A and A[0] and any(x for row in A for x in row):
        A = _corner_step(A, out)
    return tuple(out)


def _corner_step(A, out):
    while True:
        r, c = min(
            ((i, j) for i, row in enumerate(A) for j, x in enumerate(row) if x),
            key=lambda ij: abs(A[ij[0]][ij[1]]),
        )
        A[0], A[r] = A[r], A[0]
        for row in A:
            row[0], row[c] = row[c], row[0]
        p = A[0][0]
        dirty = False
        for i in range(1, len(A)):
            q = A[i][0] // p
            if q:
                A[i] = [a - q * b for a, b in zip(A[i], A[0])]
            if A[i][0]:
                dirty = True
        if dirty:
            continue
        for j in range(1, len(A[0])):
            q = A[0][j] // p
            if q:
                for row in A:
                    row[j] -= q * row[0]
            if A[0][j]:
                dirty = True
        if dirty:
            continue
        bad = [
            (i, j)
            for i in range(1, len(A))
            for j in range(1, len(A[0]))
            if A[i][j] % p
        ]
        if bad:
            i, _ = bad[0]
            A[0] = [a + b for a, b in zip(A[0], A[i])]
            continue
        out.append(abs(p))
        return [row[1:] for row in A[1:]]


def exact_det(matrix):
    """Determinant over Fractions by plain Gaussian elimination."""
    n = len(matrix)
    A = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if A[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            A[col], A[pivot] = A[pivot], A[col]
            det = -det
        det *= A[col][col]
        inv = 1 / A[col][col]
        for r in range(col + 1, n):
            if A[r][col]:
                f = A[r][col] * inv
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    assert det.denominator == 1
    return int(det)


def determinantal_divisor_factors(matrix):
    """Invariant factors as ratios of k-minor gcds.  Small matrices only."""
    m, n = len(matrix), len(matrix[0]) if matrix else 0
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                minor = exact_det([[matrix[i][j] for j in cols] for i in rows])
                g = gcd(g, minor)
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def rank_mod_p_naive(matrix, p):
    """Rank over F_p by dense row reduction with Fermat inverses; p prime."""
    A = [[int(x) % p for x in row] for row in matrix]
    rank = 0
    for c in range(len(A[0]) if A else 0):
        pivot = next((r for r in range(rank, len(A)) if A[r][c]), None)
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        inv = pow(A[rank][c], p - 2, p)
        for r in range(rank + 1, len(A)):
            if A[r][c]:
                f = A[r][c] * inv % p
                A[r] = [(a - f * b) % p for a, b in zip(A[r], A[rank])]
        rank += 1
    return rank


def profile_per_map(K, coeff="Z", reduced=False, kind="homology"):
    """Profile groups (dim, betti, torsion) from one SNF per whole boundary map.

    Each map (transposed for cohomology) is built in full and reduced on
    its own, so no map's pivots shape another's matrix.  Over Z_p the
    Betti numbers are f_i - rk_p(d_i) - rk_p(d_{i+1}), with rk_p the
    count of invariant factors that p does not divide.
    """
    p = None if coeff == "Z" else int(coeff[1:])
    factors = {}
    for i in range(0 if reduced else 1, K.dimension + 1):
        M = boundary_matrix(K, i, reduced).matrix
        factors[i] = smith_normal_form(M.transpose() if kind == "cohomology" else M).invariant_factors

    def rank(i):
        return sum(1 for d in factors.get(i, ()) if p is None or d % p)

    groups = []
    for i in range(-1 if reduced else 0, K.dimension + 1):
        f = 1 if i == -1 else len(K.faces(i))
        t = i if kind == "cohomology" else i + 1
        torsion = tuple(d for d in factors.get(t, ()) if d != 1) if p is None else ()
        betti = f - rank(i) - rank(i + 1)
        if betti or torsion:
            groups.append((i, betti, torsion))
    return tuple(groups)


def random_matrix(rng, max_dim=8, lo=-9, hi=9):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def random_complex(rng, max_vertices=8, max_facets=10, max_facet_size=5):
    n = rng.randint(1, max_vertices)
    verts = list(range(1, n + 1))
    facets = []
    for _ in range(rng.randint(1, max_facets)):
        size = rng.randint(1, min(n, max_facet_size))
        facets.append(tuple(rng.sample(verts, size)))
    return from_facets(facets)


def suspension(K, a, b):
    """Join with two fresh apex labels; the labels must not occur in K."""
    assert a not in K.vertices and b not in K.vertices
    return from_facets(
        [f + (a,) for f in K.facets] + [f + (b,) for f in K.facets]
    )


def staircase_product(K, L):
    """K x L, one facet per monotone lattice path through each pair of facets.

    Vertices are ordered by id (Eilenberg and Zilber, "On products of
    complexes", 1953): facets (a_0 < ... < a_p) of K and (b_0 < ... < b_q)
    of L give the paths from (a_0, b_0) to (a_p, b_q) that step one index
    at a time, so the simplices of the two prisms agree where they meet.
    The vertex (a, b) of ids is labelled a * n + b, n being L's vertex count.
    """
    n = L.n_vertices
    facets = []
    for f in K._id_facets:
        for g in L._id_facets:
            steps = len(f) + len(g) - 2
            for up in combinations(range(steps), len(f) - 1):
                i = j = 0
                path = [f[0] * n + g[0]]
                for t in range(steps):
                    i, j = (i + 1, j) if t in up else (i, j + 1)
                    path.append(f[i] * n + g[j])
                facets.append(path)
    return from_facets(facets)


def kuhnel(d):
    """Kuhnel's (2d + 3)-vertex d-manifold, an S^(d-1)-bundle over the circle.

    Facets are {i, ..., i + d + 1} less one of i + 1, ..., i + d, mod
    2d + 3 (W. Kuhnel, "Higherdimensional analogues of Czaszar's torus",
    *Results Math.* 9, 1986).
    """
    n = 2 * d + 3
    return from_facets(
        [tuple((i + k) % n for k in range(d + 2) if k != j) for i in range(n) for j in range(1, d + 1)]
    )


def _drop_generator(relators, target):
    # Reindex generators above `target` down by one.
    def shift(g):
        a = abs(g)
        if a > target:
            a -= 1
        return a if g > 0 else -a

    return [tuple(shift(g) for g in r) for r in relators]


def tietze_simplify_naive(P, effort_budget=10000):
    """Tietze simplification with the occurrence count redone per candidate."""
    ngens = P.ngens
    relators = [_cyclic_reduce(r) for r in P.relators]
    budget = effort_budget

    changed = True
    while changed and budget > 0:
        changed = False

        # Empty and duplicate relators say nothing.
        seen = set()
        kept = []
        for r in relators:
            if not r:
                changed = True
                continue
            key = _canonical_cyclic(r)
            if key in seen:
                changed = True
                continue
            seen.add(key)
            kept.append(r)
        relators = kept

        # Pick the cheapest elimination: a relator containing some
        # generator exactly once; solving for it substitutes a word of
        # length len(r) - 1 at every other occurrence.
        best = None
        for ri, r in enumerate(relators):
            counts = {}
            for g in r:
                counts[abs(g)] = counts.get(abs(g), 0) + 1
            for g, c in counts.items():
                if c != 1:
                    continue
                elsewhere = sum(
                    sum(1 for x in rr if abs(x) == g)
                    for rj, rr in enumerate(relators)
                    if rj != ri
                )
                cost = (len(r) - 1, elsewhere, ri, g)
                if best is None or cost < best:
                    best = cost
        if best is not None and budget > 0:
            _, _, ri, g = best
            r = relators[ri]
            pos = next(i for i, x in enumerate(r) if abs(x) == g)
            # Rotate the occurrence to the front; r ~ g w  =>  g = w^-1
            # (or g^-1 w => g = w).
            rot = r[pos:] + r[:pos]
            rest = rot[1:]
            word = tuple(-x for x in reversed(rest)) if rot[0] == g else rest
            relators = [
                _cyclic_reduce(_substitute(rr, g, word))
                for rj, rr in enumerate(relators)
                if rj != ri
            ]
            relators = _drop_generator(relators, g)
            ngens -= 1
            budget -= 1
            changed = True

    relators = [r for r in relators if r]
    return GroupPresentation(ngens=ngens, relators=tuple(sorted(set(relators))))


def edge_path_presentation_naive(K, rng=None):
    """Edge-path presentation of K itself, each triangle edge looked up as a letter.

    No B is contracted: a BFS spanning tree of K's whole 1-skeleton from
    vertex id 0 (neighbors sorted by id, then shuffled by ``rng``), one
    generator per non-tree edge and one relator per triangle, so its
    presentations are as large as K's 2-skeleton.  Connectivity is
    decided by a separate pass.
    """
    if K.dimension < 1:
        raise DimensionError("pi_1 needs a complex of dimension at least 1")
    if not K.is_connected():
        raise ConnectivityError("pi_1 presentation needs a connected complex")
    if isinstance(rng, int):
        rng = random.Random(rng)

    eids = K._ifaces(1)
    adj = {}
    for a, b in eids:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    tree = set()
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        nbrs = sorted(adj.get(u, ()))
        if rng is not None:
            rng.shuffle(nbrs)
        for v in nbrs:
            if v not in seen:
                seen.add(v)
                tree.add(tuple(sorted((u, v))))
                queue.append(v)

    gen_of = {}
    for e in eids:
        if e not in tree:
            gen_of[e] = len(gen_of) + 1

    def letter(u, v):
        # Signed generator for the directed edge u -> v; 0 for tree edges.
        e = tuple(sorted((u, v)))
        g = gen_of.get(e)
        if g is None:
            return 0
        return g if (u, v) == e else -g

    relators = []
    if K.dimension >= 2:
        for a, b, c in K._ifaces(2):
            word = [letter(a, b), letter(b, c), letter(c, a)]
            relators.append(_free_reduce([g for g in word if g]))
    return GroupPresentation(ngens=len(gen_of), relators=tuple(relators))


def edge_path_presentation_quotient_naive(K, rng=None):
    """Edge-path presentation of K/B on labels, B read off its facets.

    B is the union of the facets that ``homology._attach`` attached, and
    its vertices, edges and triangles are every subset of those facets.
    The quotient graph has one node for B and one per vertex outside B;
    its edges are K's edges outside B, with B's vertices sent to B's
    node.  The BFS from B's node reads B's neighbours vertex by vertex in
    K's vertex order and every neighbour list in that order, shuffled by
    ``rng``, as the library documents.  Each triangle outside B reads
    ab . bc . ca with its edges in B or in the tree dropped, and is left
    out when that leaves no letter.
    """
    if K.dimension < 1:
        raise DimensionError("pi_1 needs a complex of dimension at least 1")
    if isinstance(rng, int):
        rng = random.Random(rng)
    pos = {lab: i for i, lab in enumerate(K.vertices)}
    rest = {K._to_labels(f) for f in _attach(K._id_facets)[0]}
    in_b = {
        frozenset(s)
        for f in K.facets
        if f not in rest
        for k in (1, 2, 3)
        for s in combinations(f, k)
    }
    outside_edges = [e for e in K.faces(1) if frozenset(e) not in in_b]
    B = object()  # the quotient graph's node for B, equal to no label
    node = {v: B if frozenset((v,)) in in_b else v for v in K.vertices}
    nbrs = {}
    for a, b in outside_edges:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)

    def neighbours(n):
        # (vertex of n, neighbour vertex) pairs, the edges of n in BFS order
        out = []
        for u in sorted((v for v in K.vertices if node[v] == n), key=pos.get):
            ws = sorted(nbrs.get(u, ()), key=pos.get)
            if rng is not None:
                rng.shuffle(ws)
            out += [(u, w) for w in ws]
        return out

    tree = set()
    seen = {B}
    queue = deque([B])
    while queue:
        n = queue.popleft()
        for u, w in neighbours(n):
            if node[w] not in seen:
                seen.add(node[w])
                tree.add(frozenset((u, w)))
                queue.append(node[w])
    if seen != set(node.values()):
        raise ConnectivityError("pi_1 presentation needs a connected complex")

    gen_of = {}
    for e in outside_edges:
        if frozenset(e) not in tree:
            gen_of[frozenset(e)] = len(gen_of) + 1

    def letter(u, v):
        g = gen_of.get(frozenset((u, v)), 0)
        return g if pos[u] < pos[v] else -g

    relators = []
    for a, b, c in K.faces(2) if K.dimension >= 2 else ():
        if frozenset((a, b, c)) not in in_b:
            word = _free_reduce([g for g in (letter(a, b), letter(b, c), letter(c, a)) if g])
            if word:
                relators.append(word)
    return GroupPresentation(ngens=len(gen_of), relators=tuple(relators))


def quotient_search_naive(P, max_degree, node_budget):
    """Homomorphisms to S_n by trying all of S_n for every generator.

    Returns (hit or None, whether some degree ran out of node_budget).
    """
    if P.ngens == 0:
        return None, False
    by_max = {}
    for r in P.relators:
        if r:
            by_max.setdefault(max(abs(g) for g in r), []).append(r)

    for n in range(2, max_degree + 1):
        ident = tuple(range(n))
        perms = list(permutations(range(n)))
        images = [ident] * P.ngens
        nodes = 0

        def assign(i):
            nonlocal nodes
            if i == P.ngens:
                return any(img != ident for img in images)
            for p in perms:
                nodes += 1
                if nodes > node_budget:
                    return False
                images[i] = p
                ok = all(
                    _relator_image(r, images, n) == ident for r in by_max.get(i + 1, ())
                )
                if ok and assign(i + 1):
                    return True
            images[i] = ident
            return False

        if assign(0):
            return (n, tuple(images)), False
        if nodes > node_budget:
            return None, True
    return None, False


def quotient_search_composing(P, max_degree, node_budget):
    """The library's search with each relator checked by composing whole permutations.

    Same order, node count and budget as ``pi1._quotient_search``: one
    image per cycle type while every earlier generator is trivial, a
    relator checked once its highest generator is assigned, shortest
    first.  Only the relator check differs, so the two must agree on the
    hit, images included, and on whether a degree ran out of budget.
    """
    if P.ngens == 0:
        return None, False
    by_max = {}
    for r in sorted((r for r in P.relators if r), key=len):
        by_max.setdefault(max(abs(g) for g in r), []).append(r)

    for n in range(2, max_degree + 1):
        ident = tuple(range(n))
        perms = list(permutations(range(n)))
        first = _cycle_type_representatives(n)
        images = [ident] * P.ngens
        nodes = 0

        def assign(i, trivial_so_far):
            nonlocal nodes
            if i == P.ngens:
                return not trivial_so_far
            for p in first if trivial_so_far else perms:
                nodes += 1
                if nodes > node_budget:
                    return False
                images[i] = p
                ok = all(
                    _relator_image(r, images, n) == ident for r in by_max.get(i + 1, ())
                )
                if ok and assign(i + 1, trivial_so_far and p == ident):
                    return True
            images[i] = ident
            return False

        if assign(0, True):
            return (n, tuple(images)), False
        if nodes > node_budget:
            return None, True
    return None, False


def antichain_naive(id_facets):
    """The maximal members of a family of sorted tuples, each tested against all.

    Sorted and duplicate free; the empty tuple is kept only when it is
    the sole member.
    """
    members = set(id_facets)
    return tuple(sorted(
        f for f in members
        if not any(set(f) < set(g) for g in members) and (f or len(members) == 1)
    ))


def full_subcomplex_naive(K, vertex_set):
    """``(labels, facets)`` of the full subcomplex: every face of K inside V, kept if maximal.

    Faces are enumerated as all subsets of every facet; the labels are
    the used ones in K's vertex order.
    """
    inside = set(vertex_set)
    pos = {lab: i for i, lab in enumerate(K.vertices)}
    faces = [
        tuple(sorted(pos[x] for x in s))
        for f in K.facets
        for k in range(len(f) + 1)
        for s in combinations(f, k)
        if set(s) <= inside
    ]
    kept = antichain_naive(faces)
    used = sorted({v for f in kept for v in f})
    return tuple(K.vertices[v] for v in used), tuple(tuple(K.vertices[v] for v in f) for f in kept)


def join_naive(K, L):
    """``(labels, id facets)`` of the join from label-tuple products.

    Ids follow the label order K's vertices, then L's, renumbered over
    the labels some facet uses, as a complex built from these label
    facets would number them.
    """
    order = K.vertices + L.vertices
    pos = {lab: i for i, lab in enumerate(order)}
    kept = antichain_naive(
        [tuple(sorted(pos[x] for x in f + g)) for f in K.facets for g in L.facets]
    )
    used = sorted({v for f in kept for v in f})
    renumber = {v: j for j, v in enumerate(used)}
    return tuple(order[v] for v in used), tuple(tuple(renumber[v] for v in f) for f in kept)


def _label_faces(K):
    # Every face of K, the empty one included, as a frozenset of labels.
    return {frozenset(t) for f in K.facets for k in range(len(f) + 1) for t in combinations(f, k)}


def link_naive(K, simplex, faces=None):
    """Facets of lk(sigma) as frozensets of labels, None when sigma is not a face.

    From the definition: every face tau of K disjoint from sigma whose
    union with sigma is a face, kept when no one vertex more keeps it one.
    """
    faces = _label_faces(K) if faces is None else faces
    s = frozenset(simplex)
    if s not in faces:
        return None
    taus = {t for t in faces if not t & s and t | s in faces}
    return {t for t in taus if not any(t | {v} in taus for v in K.vertices if v not in t)}


def bistellar_moves_naive(K):
    """``(face, cofacet)`` label tuples of every legal flip, by face dimension then id.

    A nonempty face of dimension below dim K flips when its link is the
    boundary of a simplex W that is not a face: the link's facets are
    exactly W minus one vertex.
    """
    pos = {v: i for i, v in enumerate(K.vertices)}

    def ordered(vs):
        return tuple(sorted(vs, key=pos.get))

    faces = _label_faces(K)
    moves = []
    for face in sorted(faces, key=lambda f: (len(f), sorted(map(pos.get, f)))):
        if not 0 < len(face) <= K.dimension:
            continue
        lk = link_naive(K, face, faces)
        w = frozenset().union(*lk)
        if w not in faces and lk == {w - {v} for v in w}:
            moves.append((ordered(face), ordered(w)))
    return moves


def pseudomanifold_report_naive(K):
    """Purity, ridge degree 2 and strong connectivity, ridges from the face index.

    Every (d-1)-face of K gets a count of the top facets above it, so a
    ridge inside no top facet counts 0.
    """
    d = K.dimension
    if d < 1:
        raise DimensionError("pseudomanifold check needs a complex of dimension >= 1")
    top = [f for f in K._id_facets if len(f) == d + 1]
    pure = len(top) == len(K._id_facets)
    ridge_to_facets = {r: [] for r in K._ifaces(d - 1)}
    for idx, f in enumerate(top):
        for ridge in combinations(f, d):
            ridge_to_facets[ridge].append(idx)
    ridge_ok = all(len(v) == 2 for v in ridge_to_facets.values())
    strongly_connected = False
    if top:
        adj = {i: set() for i in range(len(top))}
        for members in ridge_to_facets.values():
            for a, b in combinations(members, 2):
                adj[a].add(b)
                adj[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        strongly_connected = len(seen) == len(top)
    return PseudomanifoldReport(
        dimension=d,
        pure=pure,
        ridge_degree_two=ridge_ok,
        strongly_connected=strongly_connected,
    )


def is_connected_naive(K):
    """Breadth-first search over the vertices, stepping within facets."""
    if not K.vertices:
        return True
    start = K.vertices[0]
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for f in K.facets:
            if v in f:
                for w in f:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
    return len(seen) == K.n_vertices


def recognize_circle_naive(K):
    """True iff K is a triangulated circle: connected, every vertex degree 2."""
    if K.dimension != 1:
        raise DimensionError(f"circle recognition needs dimension 1, got {K.dimension}")
    degree = dict.fromkeys(K.vertices, 0)
    for f in K.facets:
        if len(f) != 2:
            return False
        degree[f[0]] += 1
        degree[f[1]] += 1
    return all(c == 2 for c in degree.values()) and K.is_connected()


def recognize_2sphere_naive(K):
    """True iff K is a triangulated 2-sphere.

    Closed pseudomanifold, connected, all vertex links circles, Euler
    characteristic 2.  These conditions characterize S^2 exactly.
    """
    if K.dimension != 2:
        raise DimensionError(f"2-sphere recognition needs dimension 2, got {K.dimension}")
    if not K.is_closed_pseudomanifold().is_closed_pseudomanifold:
        return False
    if not K.is_connected():
        return False
    for v in K.vertices:
        lk = K.link((v,))
        if lk.dimension != 1 or not recognize_circle_naive(lk):
            return False
    f0, f1, f2 = K.f_vector()
    return f0 - f1 + f2 == 2


def _level_simplices(K, k):
    # Simplices whose link should be a k-sphere; the empty simplex for k = dim.
    if k == K.dimension:
        return ((),)
    return K.faces(K.dimension - k - 1)


def small_link_certificate_naive(K):
    """The certificate with one near-copy of the level loop per link dimension.

    Levels run over link dimension k = 1 .. d, the k = d level being the
    complex itself; the recognizers it calls are the naive ones above.
    """
    report = K.is_closed_pseudomanifold()
    if not report.is_closed_pseudomanifold:
        raise NotPseudomanifoldError("certification needs a closed pseudomanifold")
    d = K.dimension

    levels = []
    first_rejection = None
    first_size = None
    top_is_homology_sphere = False
    top_size_ok = True

    for k in range(1, d + 1):
        whole_complex = k == d
        simplices = _level_simplices(K, k)
        if whole_complex and d < 3:
            # Dimension 1 and 2 need no top-level budget: closed
            # pseudomanifolds there are certified by their links alone.
            prof = homology(K, reduced=True)
            top_is_homology_sphere = prof.is_sphere(d)
            continue
        links = [(s, K if whole_complex else K.link(s)) for s in simplices]
        size_hits = []
        reject_hits = []
        max_seen = 0
        allowed = 3 * k if (k >= 3 or whole_complex) else None

        if k == 1:
            method = "circle recognizer"
            for s, lk in links:
                max_seen = max(max_seen, lk.n_vertices)
                if lk.dimension != 1 or not recognize_circle_naive(lk):
                    reject_hits.append((s, "link is not a circle"))
        elif k == 2:
            method = "2-sphere recognizer"
            for s, lk in links:
                max_seen = max(max_seen, lk.n_vertices)
                if lk.dimension != 2 or not recognize_2sphere_naive(lk):
                    reject_hits.append((s, "link is not a 2-sphere"))
        else:
            method = "homology k-sphere + 3k vertex budget"
            for s, lk in links:
                nv = lk.n_vertices
                max_seen = max(max_seen, nv)
                if nv > allowed:
                    size_hits.append((s, f"link has {nv} vertices, budget {allowed}"))
                sphere_ok = lk.dimension == k and homology(lk, reduced=True).is_sphere(k)
                if whole_complex:
                    top_is_homology_sphere = sphere_ok
                elif not sphere_ok:
                    reject_hits.append((s, f"link is not a homology {k}-sphere"))

        if whole_complex:
            top_size_ok = not size_hits
        levels.append(
            LevelSummary(
                sphere_dim=k,
                simplices_checked=len(links),
                max_link_vertices=max_seen,
                allowed_vertices=allowed,
                size_violations=len(size_hits),
                rejections=len(reject_hits),
                method=method if not whole_complex else "whole complex: 3d vertex budget",
            )
        )
        if reject_hits and first_rejection is None:
            first_rejection = reject_hits[0]
        if size_hits and first_size is None:
            first_size = size_hits[0]

    if first_rejection is not None:
        witness, reason = first_rejection
        verdict = "REJECTED"
    elif first_size is not None:
        witness, reason = first_size
        verdict = "INCONCLUSIVE"
    else:
        witness, reason = None, None
        verdict = "CERTIFIED"

    pl_sphere = verdict == "CERTIFIED" and top_is_homology_sphere and top_size_ok
    cert = CombinatorialityCertificate(
        verdict=verdict,
        dimension=d,
        levels=tuple(levels),
        witness=witness,
        witness_reason=reason,
        pl_sphere=pl_sphere,
    )
    return cert
